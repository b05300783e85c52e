"""The batched run engine, pinned bit for bit to the one-run reference stepper of ``reference.py``."""
import ast
import csv
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from adamlab.cli import EXIT_OK, EXIT_USAGE, QuadConfig, SweepConfig, _beta_pairs, fmt_float, main, serialize_config
from adamlab.core import beta_grid
from adamlab import optim, quadbench
from adamlab.optim import EpsilonPlacement, OptimizerConfig, OptimizerKind
from adamlab.quadbench import (
    BLOCK_SLICES,
    DIVERGENCE_THRESHOLD,
    Layout,
    QuadraticProblem,
    RunRecord,
    RunSpec,
    build_problem,
    default_quad_config,
    draw_rows,
    initial_point,
    loss_quantiles,
    make_config_id,
    run_batch,
    subset_gradient,
)

#: rates from vanishing to overflowing; the last two make losses non-finite
RATES = (0.0, 2.0**-12, 2.0**-7, 2.0**-3, 1.0, 8.0, 1e150, 1e300)

#: everything ``reference.py`` may import: no step function that it pins
REFERENCE_IMPORTS = {
    "math",
    "numpy",
    "adamlab.core.lr_at",
    "adamlab.optim.EpsilonPlacement",
    "adamlab.optim.OptimizerKind",
    "adamlab.quadbench.BLOCK_SLICES",
    "adamlab.quadbench.DIVERGENCE_THRESHOLD",
    "adamlab.quadbench.RunRecord",
    "adamlab.quadbench.derive_seed",
    "adamlab.quadbench.subset_gradient",
}


def test_reference_imports_no_step_function_it_pins():
    """``reference.py`` imports none of the code it pins, such as ``scan`` or ``direction_map``."""
    imported = set()
    for node in ast.walk(ast.parse(Path(reference.__file__).read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module}.{alias.name}" for alias in node.names}
    assert imported <= REFERENCE_IMPORTS


def assert_same_record(expected: RunRecord, got: RunRecord) -> None:
    assert (got.config_id, got.seed) == (expected.config_id, expected.seed)
    assert np.array_equal(got.losses, expected.losses)
    assert (got.diverged_at, got.reason) == (expected.diverged_at, expected.reason)
    if expected.delta_block_means is None:
        assert got.delta_block_means is None
    else:
        assert got.delta_block_means.shape == expected.delta_block_means.shape
        assert np.array_equal(got.delta_block_means, expected.delta_block_means)


def assert_batch_equals_reference(problem, runs, steps, batch_size) -> list[RunRecord]:
    """Run ``runs`` as one batch, pin each record to the reference stepper, and return the records."""
    with np.errstate(over="ignore", invalid="ignore"):
        batch = run_batch(problem, runs, steps, batch_size)
        for run, got in zip(runs, batch):
            assert_same_record(reference.run(problem, run, steps, batch_size), got)
    return batch


@settings(max_examples=80)
@given(
    kind=st.sampled_from(OptimizerKind),
    placement=st.sampled_from(EpsilonPlacement),
    epsilon=st.sampled_from((0.0, 1e-8, 1e-3)),
    betas=st.tuples(st.sampled_from((0.0, 0.5, 0.9, 0.95)), st.sampled_from((0.0, 0.9, 0.999))),
    batch_size=st.integers(1, 9),
    rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=4, unique=True),
    n_seeds=st.integers(1, 3),
    layout=st.sampled_from(Layout),
)
def test_batch_equals_reference_stepper(kind, placement, epsilon, betas, batch_size, rates, n_seeds, layout):
    beta1, beta2 = betas
    if kind is OptimizerKind.ADAM_EQUAL_BETA:
        beta2 = beta1
    config = OptimizerConfig(kind, beta1=beta1, beta2=beta2, epsilon=epsilon, epsilon_placement=placement)
    problem = build_problem(layout, len(rates))
    steps = 40
    runs = [
        RunSpec(config, lr, initial_point(problem.dim, seed), seed, f"cell:{lr!r}")
        for lr in rates
        for seed in range(n_seeds)
    ]
    assert_batch_equals_reference(problem, runs, steps, batch_size)


def test_rates_cover_both_divergence_reasons():
    """The example rates above reach both ways of diverging."""
    problem = build_problem(Layout.HETEROGENEOUS, 1)
    config = OptimizerConfig(OptimizerKind.SGD, beta1=0.0)
    runs = [RunSpec(config, lr, initial_point(9, 0), 0) for lr in RATES]
    with np.errstate(over="ignore", invalid="ignore"):
        reasons = {record.reason for record in run_batch(problem, runs, 40, 3)}
    assert reasons == {None, "threshold", "non_finite"}


class TestDivergenceReasons:
    """Full-batch SGD without momentum over 5 steps, too few for a warmup: every step is ``w - lr*H w``."""

    def setup_method(self):
        self.problem = build_problem(Layout.HETEROGENEOUS, 2)
        self.config = OptimizerConfig(OptimizerKind.SGD, beta1=0.0)
        self.w0 = initial_point(9, 0)

    def run(self, lr):
        with np.errstate(over="ignore", invalid="ignore"):
            return run_batch(self.problem, [RunSpec(self.config, lr, self.w0, 0)], 5, 9)[0]

    def test_threshold(self):
        # each step multiplies the top-eigenvalue component by |1 - 5000| ~ 5e3
        record = self.run(1.0)
        assert record.diverged and record.reason == "threshold"
        assert record.losses[-1] > DIVERGENCE_THRESHOLD
        assert np.all(record.losses[:-1] <= DIVERGENCE_THRESHOLD)
        assert np.all(np.isfinite(record.losses))
        assert record.diverged_at == record.losses.size - 1 >= 1

    def test_non_finite(self):
        # the first step puts |w| near 1e303, whose square overflows
        record = self.run(1e300)
        assert record.diverged and record.reason == "non_finite"
        assert record.diverged_at == 0
        assert record.losses.size == 0
        assert record.final_loss() == math.inf

    def test_finished_run_has_no_reason(self):
        record = self.run(1e-5)
        assert not record.diverged
        assert record.diverged_at is None and record.reason is None
        assert record.losses.size == 5


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.integers(1, 12),
    data=st.data(),
)
def test_pre_drawn_rows_replay_successive_permutations(seed, n, data):
    """Fails loudly if numpy changes how ``permuted`` or ``permutation`` consume the stream."""
    batch_size = data.draw(st.integers(1, n))
    steps = data.draw(st.integers(0, 60))
    lazy = np.random.default_rng(seed)
    expected = [lazy.permutation(n)[:batch_size] for _ in range(steps)]
    eager = np.random.default_rng(seed)
    rows = draw_rows(eager, n, steps, batch_size)
    assert rows.shape == (steps, batch_size)
    assert np.array_equal(rows, np.reshape(expected, (steps, batch_size)))
    assert lazy.integers(2**63) == eager.integers(2**63)


def test_pre_drawn_rows_validate_batch_size(monkeypatch, tmp_path, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("rows drawn for an invalid batch size")

    rng = np.random.default_rng(0)
    problem = build_problem(Layout.HETEROGENEOUS, 0)
    run = RunSpec(OptimizerConfig(OptimizerKind.SIGNUM), 0.01, initial_point(9, 0), 0)
    for batch_size in (0, -1, 10):
        message = re.escape(f"batch_size must be in [1, 9], got {batch_size}")
        with pytest.raises(ValueError, match=message):
            draw_rows(rng, 9, 5, batch_size)
        # the engine checks before its first draw, with draw_rows' message
        with monkeypatch.context() as patch:
            patch.setattr(quadbench, "draw_rows", no_draw)
            with pytest.raises(ValueError, match=message):
                run_batch(problem, [run], 5, batch_size)
    assert main(["quad", "--batch-size", "10", "--steps", "5", "--out", str(tmp_path / "quad")]) == EXIT_USAGE
    assert capsys.readouterr().err == "invalid configuration: batch_size must be in [1, 9], got 10\n"
    assert not (tmp_path / "quad").exists()


@pytest.mark.parametrize(
    "rates, steps, message",
    [
        ((0.01, math.nan), 5, "peak_lr must be finite and nonnegative, got nan"),
        ((math.inf,), 5, "peak_lr must be finite and nonnegative, got inf"),
        ((0.01, -1.0, math.nan), 5, "peak_lr must be finite and nonnegative, got -1.0"),
        ((0.01,), 0, "steps must be positive, got 0"),
        ((0.01,), -3, "steps must be positive, got -3"),
    ],
)
def test_batch_checks_rates_and_steps_before_drawing(monkeypatch, rates, steps, message):
    def no_draw(*args, **kwargs):
        raise AssertionError("rows drawn for an invalid schedule")

    monkeypatch.setattr(quadbench, "draw_rows", no_draw)
    problem = build_problem(Layout.HETEROGENEOUS, 0)
    runs = [RunSpec(OptimizerConfig(OptimizerKind.SIGNUM), lr, initial_point(9, 0), 0) for lr in rates]
    with pytest.raises(ValueError, match=re.escape(message)):
        run_batch(problem, runs, steps, 3)


@settings(max_examples=50)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch_size=st.integers(1, 9),
    n_runs=st.integers(1, 5),
    steps=st.integers(1, 6),
    layout=st.sampled_from(Layout),
    base_seed=st.integers(0, 6),
)
def test_stacked_gradient_and_loss_match_one_run_forms(seed, batch_size, n_runs, steps, layout, base_seed):
    """Row r of the stacked forms, at step k of a history, equals the one-run vector expressions bitwise."""
    rng = np.random.default_rng(seed)
    problem = build_problem(layout, base_seed)
    dim = problem.dim
    history = rng.standard_normal((steps, n_runs, dim)) * 10.0 ** rng.integers(-6, 6, size=(steps, n_runs, 1))
    rows = draw_rows(rng, dim, steps * n_runs, batch_size).reshape(steps, n_runs, batch_size)
    losses = problem.loss(history)
    block_sums = [np.add.reduce(history[..., sl], axis=-1) for sl in BLOCK_SLICES]
    for k, w in enumerate(history):
        g = subset_gradient(problem, w, rows[k])
        assert np.array_equal(losses[k], problem.loss(w))
        for sl, sums in zip(BLOCK_SLICES, block_sums):
            assert np.array_equal(sums[k], np.add.reduce(w[:, sl], axis=-1))
        for r in range(n_runs):
            xb = problem.design[rows[k, r]]
            g_r = (dim / batch_size) * (xb.T @ (xb @ w[r]))
            loss_r = 0.5 * float(w[r] @ (problem.hessian @ w[r]))
            assert np.array_equal(g[r], g_r)
            assert np.array_equal(subset_gradient(problem, w[r], rows[k, r]), g_r)
            assert losses[k, r] == loss_r == problem.loss(w[r])
            for sl, sums in zip(BLOCK_SLICES, block_sums):
                assert sums[k, r] / 3.0 == np.mean(w[r, sl])


def assert_bitwise(got, expected):
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes(), (got, expected)


def garbage(rng, shape, dtype=float):
    """A buffer filled with what a previous step could have left: a written ``out`` must not read it."""
    dtype = np.dtype(dtype)
    if dtype == bool:
        return rng.random(shape) < 0.5
    if dtype.kind == "i":
        return rng.integers(-(2**40), 2**40, size=shape, dtype=dtype)
    return rng.choice([np.nan, -np.inf, -0.0, 1e300, 3.0], size=shape).astype(dtype)


class GarbageNumpy:
    """numpy, as a module that uses it sees it, but with every ``empty`` and ``empty_like`` buffer made of garbage."""

    def __init__(self, rng):
        self.rng = rng

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        return garbage(self.rng, shape, dtype)

    def empty_like(self, a, dtype=None):
        return garbage(self.rng, np.shape(a), dtype or a.dtype)


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(OptimizerKind),
    placement=st.sampled_from(EpsilonPlacement),
    epsilon=st.sampled_from((0.0, 1e-8, 1e-3)),
    n_runs=st.integers(1, 5),
    batch_size=st.integers(1, 9),
    steps=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_out_forms_equal_allocating_forms(kind, placement, epsilon, n_runs, batch_size, steps, seed):
    """Every array the engine makes starts as garbage, and its records still equal the reference stepper's.

    In ``optim`` and ``quadbench``, ``np.empty`` and ``np.empty_like`` hand
    out buffers of nan, infinities, -0.0, huge integers and random bools, so
    a step that reads what it has not written fails. Each run starts with
    one block at zero, whose gradient, moments and root then stay 0, so the
    0/0 guards fire at epsilon 0. The runs' momenta differ (a batch of one,
    or of equal momenta, shares its bias corrections), and so do their
    rates, some of which end them. ``subset_gradient`` writes into garbage
    exactly what its allocating form returns.
    """
    rng = np.random.default_rng(seed)
    problem = build_problem(Layout.HETEROGENEOUS, seed % 3)
    shape = (n_runs, problem.dim)
    w = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=(n_runs, 1))
    rows = draw_rows(rng, problem.dim, n_runs, batch_size)
    sizes = ((n_runs, batch_size, problem.dim), (n_runs, batch_size, 1), (*shape, 1))
    gather = tuple(garbage(rng, size) for size in sizes)
    g = subset_gradient(problem, w, rows, out=gather)
    assert_bitwise(g, subset_gradient(problem, w, rows))
    assert g.base is gather[2]

    runs = []
    for i in range(n_runs):
        beta1, beta2 = rng.choice(MIXED_BETAS, size=2).tolist()
        beta2 = beta1 if kind is OptimizerKind.ADAM_EQUAL_BETA else beta2
        config = OptimizerConfig(kind, beta1, beta2, epsilon=epsilon, epsilon_placement=placement)
        w0 = initial_point(problem.dim, i)
        w0[BLOCK_SLICES[i % 3]] = 0.0
        runs.append(RunSpec(config, float(rng.choice(RATES)), w0, i, f"run{i}"))
    with pytest.MonkeyPatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
        for module in (optim, quadbench):
            patch.setattr(module, "np", GarbageNumpy(rng))
        batch = run_batch(problem, runs, steps, batch_size)
    with np.errstate(over="ignore", invalid="ignore"):
        for run, got in zip(runs, batch):
            assert_same_record(reference.run(problem, run, steps, batch_size), got)


#: momentum values for mixed batches; 0.9 and 0.95 are the benchmark's, 0.0 turns momentum off
MIXED_BETAS = (0.0, 0.5, 0.9, 0.95, 0.999)
#: 1e7 ends runs by the threshold and 1e300 by a non-finite loss, for every kind;
#: 1e308 ends by a non-finite loss too, and its scheduled rates then overflow to inf
DROP_OUT_RATES = (1e7, 1e300, 1e308)


def mixed_runs(kind, pairs, rates, n_seeds, steps, **settings):
    """One run per (pair, rate, seed); each pair gets its own config, all else shared."""
    runs = []
    for beta1, beta2 in pairs:
        config = OptimizerConfig(
            kind, beta1=beta1, beta2=beta1 if kind is OptimizerKind.ADAM_EQUAL_BETA else beta2, **settings
        )
        for lr in rates:
            runs += [
                RunSpec(config, lr, initial_point(9, seed), seed, f"b={beta1!r},{beta2!r}:lr={lr!r}")
                for seed in range(n_seeds)
            ]
    return runs


@pytest.mark.parametrize("kind", OptimizerKind)
@settings(max_examples=8, deadline=None)
@given(
    # 1e308 ends at once, and its schedule's rate then overflows to inf
    mix=st.lists(
        st.tuples(st.sampled_from((*RATES, 1e308)), st.sampled_from(MIXED_BETAS), st.sampled_from(MIXED_BETAS)),
        min_size=2,
        max_size=5,
    ),
    layout=st.sampled_from(Layout),
)
def test_record_does_not_depend_on_its_neighbours(kind, mix, layout):
    """A run's record in a mixed batch is its record alone, bit for bit, however its neighbours end."""
    problem = build_problem(layout, len(mix))
    steps = 30
    runs = []
    for i, (lr, beta1, beta2) in enumerate(mix):
        beta2 = beta1 if kind is OptimizerKind.ADAM_EQUAL_BETA else beta2
        config = OptimizerConfig(kind, beta1=beta1, beta2=beta2)
        runs.append(RunSpec(config, lr, initial_point(problem.dim, i % 2), i % 2, f"run{i}:lr={lr!r}"))
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = run_batch(problem, runs, steps, 3)
        for run, got in zip(runs, mixed):
            assert_same_record(run_batch(problem, [run], steps, 3)[0], got)


def test_minus_infinite_loss_ends_the_run_unrecorded(monkeypatch):
    """``quad --lr 1e300`` on the homogeneous layout: 0.5 w^T H w overflows to -inf at step 1."""
    seen = []
    loss = QuadraticProblem.loss

    def recording_loss(self, w):
        seen.append(loss(self, w))
        return seen[-1]

    monkeypatch.setattr(QuadraticProblem, "loss", recording_loss)
    problem = build_problem(Layout.HOMOGENEOUS, 0)
    config = default_quad_config(OptimizerKind.ADAM_EQUAL_BETA)
    runs = [RunSpec(config, 1e300, initial_point(9, seed), seed, make_config_id("hom", "adameq", 1e300)) for seed in (0, 1)]
    # a slow neighbour steps on beside both overflowing runs
    runs.append(RunSpec(config, 2.0**-7, initial_point(9, 0), 0, "slow"))
    with np.errstate(over="ignore", invalid="ignore"):
        records = run_batch(problem, runs, 50, 3)
    for i, record in enumerate(records[:2]):
        assert seen[0][1, i] == -math.inf
        assert (record.diverged, record.diverged_at, record.reason) == (True, 1, "non_finite")
        assert record.losses.size == 1 and np.isfinite(record.losses[0])
    assert not records[2].diverged and records[2].losses.size == 50


#: losses at and around the end test's bounds
EDGE_LOSSES = (
    DIVERGENCE_THRESHOLD,
    float(np.nextafter(DIVERGENCE_THRESHOLD, math.inf)),
    -2 * DIVERGENCE_THRESHOLD,
    math.inf,
    -math.inf,
    math.nan,
    -0.0,
    -5e-324,
    -1e-300,
)


@settings(max_examples=150, deadline=None)
@given(
    columns=st.integers(1, 4).flatmap(
        lambda n_runs: st.lists(
            st.lists(st.sampled_from(EDGE_LOSSES) | st.floats(0.0, 1e13), min_size=n_runs, max_size=n_runs),
            min_size=1,
            max_size=8,
        )
    )
)
def test_end_test_follows_the_per_run_rule(columns):
    """Losses drawn per step and run, fed to the engine in place of the real ones."""
    steps, n_runs = len(columns), len(columns[0])
    calls = 0

    def drawn_loss(self, w):
        nonlocal calls
        calls += 1
        assert w.shape == (steps, n_runs, 9)
        return np.array(columns)

    problem = build_problem(Layout.HETEROGENEOUS, 0)
    config = default_quad_config(OptimizerKind.SGD)
    runs = [RunSpec(config, 2.0**-7, initial_point(9, seed), seed) for seed in range(n_runs)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(QuadraticProblem, "loss", drawn_loss)
        records = run_batch(problem, runs, steps, 3)
    for i, record in enumerate(records):
        trace = [column[i] for column in columns]
        # the first step whose loss is not finite, or above the threshold, ends the run; nothing ends it again
        end = next((k for k, loss in enumerate(trace) if not math.isfinite(loss) or loss > DIVERGENCE_THRESHOLD), None)
        if end is None:
            assert (record.diverged_at, record.reason) == (None, None)
            recorded = steps
        else:
            reason = "threshold" if math.isfinite(trace[end]) else "non_finite"
            assert (record.diverged_at, record.reason) == (end, reason)
            recorded = end + (reason == "threshold")
        assert [x.hex() for x in record.losses.tolist()] == [x.hex() for x in trace[:recorded]]
    # the losses of the whole point history come from one call
    assert calls == 1


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(OptimizerKind),
    epsilon=st.sampled_from((0.0, 1e-8)),
    pairs=st.lists(st.tuples(st.sampled_from(MIXED_BETAS), st.sampled_from(MIXED_BETAS)), min_size=2, max_size=4),
    rates=st.lists(st.sampled_from(RATES[:5]), min_size=1, max_size=2, unique=True),
    n_seeds=st.integers(1, 2),
    layout=st.sampled_from(Layout),
)
def test_mixed_momentum_batch_equals_batch_per_pair_and_reference(kind, epsilon, pairs, rates, n_seeds, layout):
    """Runs that differ in momentum step together, beside ended runs that keep their beta rows."""
    problem = build_problem(layout, len(pairs))
    steps = 24
    # the drop-out rates come first, so every later run steps on beside ended ones
    runs = mixed_runs(kind, pairs, [*DROP_OUT_RATES, *rates], n_seeds, steps, epsilon=epsilon)
    mixed = assert_batch_equals_reference(problem, runs, steps, 3)
    per_pair: dict[tuple[float, float], list[int]] = {}
    for i, run in enumerate(runs):
        per_pair.setdefault((run.config.beta1, run.config.beta2), []).append(i)
    with np.errstate(over="ignore", invalid="ignore"):
        for own in per_pair.values():
            alone = run_batch(problem, [runs[i] for i in own], steps, 3)
            for i, record in zip(own, alone):
                assert_same_record(record, mixed[i])
    assert {record.reason for record in mixed} >= {"threshold", "non_finite"}


@pytest.mark.parametrize("kind", OptimizerKind)
def test_batch_in_which_every_run_ends_early_equals_reference(kind):
    """No run is left after the first few steps, and the batch steps on to the end all the same."""
    problem = build_problem(Layout.HOMOGENEOUS, 6)
    steps = 30
    runs = mixed_runs(kind, [(0.9, 0.999), (0.5, 0.9)], DROP_OUT_RATES, 2, steps)
    batch = assert_batch_equals_reference(problem, runs, steps, 3)
    assert max(record.diverged_at for record in batch) < steps // 2
    assert {record.reason for record in batch} == {"threshold", "non_finite"}


def test_bias_correction_powers_are_python_powers(monkeypatch):
    """Pinned: numpy's power of 0.9 at step 12 is one ulp off Python's, and the engine must not use it.

    Only equal-beta Adam reads ``beta**k`` itself: ``1 - beta**k`` rounds
    the two powers of 0.9 at step 12 alike. Runs that share their betas
    share one factor.
    """
    assert (np.array([[0.9]]) ** 12)[0, 0] != 0.9**12  # numpy 2.4.6; without it this case pins nothing
    tables = []
    correction_table = optim._correction_table

    def recording_table(*args):
        tables.append(correction_table(*args))
        return tables[-1]

    monkeypatch.setattr(optim, "_correction_table", recording_table)
    problem = build_problem(Layout.HETEROGENEOUS, 3)
    c1_mixed = [1.0 - 0.9**12] * 2 + [1.0 - 0.95**12] * 2
    for kind, pairs, c1, second in (
        (OptimizerKind.ADAM_EQUAL_BETA, [(0.9, 0.9), (0.95, 0.9)], c1_mixed, [0.9**12] * 2 + [0.95**12] * 2),
        (OptimizerKind.ADAM, [(0.9, 0.9), (0.95, 0.9)], c1_mixed, [1.0 - 0.9**12] * 4),
        (OptimizerKind.ADAM_EQUAL_BETA, [(0.9, 0.9)], [1.0 - 0.9**12], [0.9**12]),
        (OptimizerKind.ADAM, [(0.9, 0.9)], [1.0 - 0.9**12], [1.0 - 0.9**12]),
    ):
        runs = mixed_runs(kind, pairs, [2.0**-7], 2, 16)
        assert_batch_equals_reference(problem, runs, 16, 3)
        factors = tables[-1][11]  # after step 12
        assert [np.ravel(factor).tolist() for factor in factors] == [c1, second]


@pytest.mark.parametrize("start", [np.nan, 1e307])
def test_batch_rejects_a_non_finite_gradient(start):
    # a finite start point can still overflow the first gradient
    problem = build_problem(Layout.HETEROGENEOUS, 0)
    w0 = np.full(9, start)
    run = RunSpec(OptimizerConfig(OptimizerKind.SIGNUM), 0.01, w0, 0)
    with pytest.raises(ValueError, match="non-finite"):
        run_batch(problem, [run], 5, 3)


def test_batch_rejects_configs_that_differ_beyond_betas():
    problem = build_problem(Layout.HETEROGENEOUS, 0)
    for other in (
        OptimizerConfig(OptimizerKind.ADAM, beta1=0.9, epsilon=0.0),
        OptimizerConfig(OptimizerKind.ADAM, beta1=0.9, epsilon_placement=EpsilonPlacement.INSIDE_SQRT),
        OptimizerConfig(OptimizerKind.RMSPROP, beta2=0.9),
    ):
        runs = [
            RunSpec(OptimizerConfig(OptimizerKind.ADAM, beta1=0.8, beta2=0.9), 0.01, initial_point(9, 0), 0),
            RunSpec(other, 0.01, initial_point(9, 1), 1),
        ]
        with pytest.raises(ValueError, match="differ only in beta1 and beta2"):
            run_batch(problem, runs, 5, 3)


def test_skipping_variance_snapshots_changes_nothing_else():
    problem = build_problem(Layout.HOMOGENEOUS, 4)
    runs = mixed_runs(OptimizerKind.ADAM, [(0.9, 0.95), (0.5, 0.999)], [2.0**-5, 1e300], 2, 20)
    with np.errstate(over="ignore", invalid="ignore"):
        tracked = run_batch(problem, runs, 20, 3)
        skipped = run_batch(problem, runs, 20, 3, track_delta=False)
    for full, lean in zip(tracked, skipped):
        assert full.delta_block_means is not None and lean.delta_block_means is None
        assert np.array_equal(full.losses, lean.losses)
        assert (full.diverged, full.diverged_at, full.reason) == (lean.diverged, lean.diverged_at, lean.reason)


# ---------------------------------------------------------------------------
# sweep.csv, every cell run on the reference stepper


def test_sweep_csv_equals_batch_per_pair(tmp_path, capsys):
    """Every row of ``sweep.csv`` is its cell's runs on the reference stepper.

    Pins the sweep's stream labels, its zero epsilon for sign methods, and
    each cell's status and quantiles.
    """
    names = ("sgd", "signum", "adameq", "adam", "rmsprop")
    kappas, n_seeds, steps = (0.5, 1.0, 2.0), 2, 60
    argv = ["sweep", *(f"--optim={name}" for name in names), "--kappas", *map(str, kappas)]
    argv += ["--seeds", str(n_seeds), "--steps", str(steps), "--out", str(tmp_path / "sweep")]
    assert main(argv) == EXIT_OK
    capsys.readouterr()

    cfg = SweepConfig()
    problem = build_problem(Layout.HETEROGENEOUS, 0)
    starts = [initial_point(problem.dim, seed) for seed in range(n_seeds)]
    rows = []
    for name in names:
        kind = OptimizerKind(name)
        for beta1, beta2 in _beta_pairs(kind, beta_grid(cfg.beta_base, kappas), False):
            config = OptimizerConfig(kind, beta1, beta2, epsilon=0.0 if kind is OptimizerKind.SIGNUM else 1e-8)
            for lr in cfg.lr_grid:
                label = f"het:{name}:lr={lr:.17g}:b1={beta1:.17g}:b2={beta2:.17g}"
                runs = [RunSpec(config, lr, w0, seed, label) for seed, w0 in enumerate(starts)]
                with np.errstate(over="ignore", invalid="ignore"):
                    records = [reference.run(problem, run, steps, cfg.batch_size) for run in runs]
                n_diverged = sum(record.diverged for record in records)
                status = "all_diverged" if n_diverged == n_seeds else "partial" if n_diverged else "ok"
                stats = loss_quantiles(np.array([[record.final_loss() for record in records]]))[0]
                rows.append(["het", name, *map(fmt_float, (lr, beta1, beta2)), str(n_seeds), *map(fmt_float, stats), str(n_diverged), status])
    assert {row[10] for row in rows} == {"ok", "partial", "all_diverged"}
    header = ["layout", "optimizer", "lr", "beta1", "beta2", "n_seeds", "median_final", "q25", "q75", "n_diverged", "status"]
    with open(tmp_path / "reference.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_quad_csvs_equal_best_cells_on_reference(tmp_path, capsys):
    """``summary.csv`` and ``runs.csv`` of ``quad`` are each optimizer's best cell on the reference stepper.

    The best cell is the first minimum of the median final loss; its status
    is ``all_diverged`` (with an empty ``best_lr``) when every seed diverged,
    ``partial`` when some did, else ``ok``, and its runs are the ones
    ``runs.csv`` lists. The first grid holds rates that end no seed, some
    seeds and every seed; ``--lr 1e300`` ends every run; in the last grid,
    heterogeneous ``sgd`` ends two of three seeds at 0.003, so both of its
    medians are inf and the tie goes to the partly diverged (``partial``)
    cell.
    """
    names, n_seeds, steps = ("sgd", "signum", "adameq", "adam"), 3, 60
    grid = (2.0**-9, 0.003, 3000.0, 10000.0, 30000.0)
    commands = ((grid, [], grid), (grid, ["--lr", "1e300"], (1e300,)), ((0.003, 1e300), [], (0.003, 1e300)))
    ended, tied_partial = set(), False
    for i, (config_grid, flags, rates) in enumerate(commands):
        path, out = tmp_path / f"quad{i}.json", tmp_path / f"quad{i}"
        cfg = QuadConfig(optimizers=names, lr_grid=config_grid, seeds=tuple(range(n_seeds)), steps=steps)
        path.write_text(serialize_config(cfg))
        assert main(["quad", "--config", str(path), *flags, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        summary = [["optimizer", "layout", "best_lr", "median_final", "q25", "q75", "status"]]
        runs_rows = [["config_id", "seed", "step", "loss", "delta_b1", "delta_b2", "delta_b3"]]
        for layout in ("het", "hom"):
            problem = build_problem(Layout(layout), 0)
            starts = [initial_point(problem.dim, seed) for seed in range(n_seeds)]
            for name in sorted(names):
                kind = OptimizerKind(name)
                config = OptimizerConfig(kind, 0.95, epsilon=0.0 if kind is OptimizerKind.SIGNUM else 1e-8)
                cells = []
                for lr in rates:
                    label = make_config_id(layout, name, lr)
                    runs = [RunSpec(config, lr, w0, seed, label) for seed, w0 in enumerate(starts)]
                    with np.errstate(over="ignore", invalid="ignore"):
                        cells.append([reference.run(problem, run, steps, 3) for run in runs])
                    ended.add(sum(record.diverged for record in cells[-1]))
                stats = loss_quantiles(np.array([[record.final_loss() for record in own] for own in cells]))
                medians = stats[:, 0].tolist()
                best = medians.index(min(medians))
                n_diverged = sum(record.diverged for record in cells[best])
                tied_partial |= medians.count(medians[best]) > 1 and 0 < n_diverged < n_seeds
                all_diverged = n_diverged == n_seeds
                best_lr = "" if all_diverged else fmt_float(rates[best])
                status = "all_diverged" if all_diverged else "partial" if n_diverged else "ok"
                summary.append([name, layout, best_lr, *map(fmt_float, stats[best]), status])
                for record in cells[best]:
                    for step, loss in enumerate(record.losses.tolist()):
                        means = record.delta_block_means
                        blocks = [""] * 3 if means is None else map(fmt_float, means[step])
                        runs_rows.append([record.config_id, str(record.seed), str(step), fmt_float(loss), *blocks])
        for name, rows in (("summary.csv", summary), ("runs.csv", runs_rows)):
            with open(tmp_path / name, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), (i, name)
    assert 0 in ended and n_seeds in ended and ended - {0, n_seeds}
    assert tied_partial
