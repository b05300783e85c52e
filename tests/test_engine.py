"""The batched run engine, pinned bit for bit to the per-step reference stepper."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamlab.cli import EXIT_OK, EXIT_USAGE, SweepConfig, _beta_pairs, _write_csv, fmt_float, main
from adamlab.core import InitMode, beta_grid, lr_at
from adamlab.optim import (
    _SECOND_MOMENT_KINDS,
    EpsilonPlacement,
    OptimizerConfig,
    OptimizerKind,
    apply_step,
    corrected_moments,
    delta_estimate,
    direction,
    init_state,
)
from adamlab.quadbench import (
    DIVERGENCE_THRESHOLD,
    BlockSpec,
    Layout,
    QuadraticProblem,
    RunRecord,
    RunSpec,
    build_problem,
    default_quad_config,
    derive_seed,
    draw_rows,
    initial_point,
    loss_quantiles,
    make_config_id,
    run_batch,
    run_cell,
    run_experiment,
    stochastic_grad,
    subset_gradient,
)

#: rates from vanishing to overflowing; the last two make losses non-finite
RATES = (0.0, 2.0**-12, 2.0**-7, 2.0**-3, 1.0, 8.0, 1e150, 1e300)


def reference_run(problem, config, lr, steps, batch_size, w0, seed, config_id=""):
    """The per-step runner the engine replaced, one run and one step at a time."""
    rng = np.random.default_rng(derive_seed(seed, "batches", config_id))
    w = np.asarray(w0, dtype=float).copy()
    state = init_state(config, w.shape)
    track_delta = config.kind in _SECOND_MOMENT_KINDS
    slices = problem.block_slices

    losses: list[float] = []
    deltas: list[list[float]] = []
    reason = None
    for k in range(steps):
        g = stochastic_grad(problem, w, batch_size, rng)
        d, state = direction(config, state, g)
        w = apply_step(w, d, lr_at(k, steps, lr))
        loss = problem.loss(w)
        if not math.isfinite(loss):
            reason = "non_finite"
            break
        losses.append(loss)
        if track_delta:
            snapshot = delta_estimate(config, corrected_moments(config, state))
            deltas.append([float(np.mean(snapshot[sl])) for sl in slices])
        if loss > DIVERGENCE_THRESHOLD:
            reason = "threshold"
            break
    return RunRecord(
        config_id=config_id,
        seed=seed,
        losses=np.asarray(losses),
        delta_block_means=np.asarray(deltas) if track_delta else None,
        reason=reason,
    )


def assert_same_run(expected: RunRecord, got: RunRecord) -> None:
    assert got.config_id == expected.config_id and got.seed == expected.seed
    assert got.losses.size == expected.losses.size
    assert np.array_equal(got.losses, expected.losses)
    assert got.diverged == expected.diverged
    if expected.delta_block_means is None:
        assert got.delta_block_means is None
    else:
        # the reference stores an empty trace as shape (0,), the engine as (0, blocks)
        assert got.delta_block_means.shape == (got.losses.size, 3)
        assert np.array_equal(got.delta_block_means.reshape(-1), expected.delta_block_means.reshape(-1))


def assert_divergence_fields(record: RunRecord) -> None:
    if not record.diverged:
        assert record.diverged_at is None and record.reason is None
    elif record.reason == "non_finite":
        assert record.diverged_at == record.losses.size
    else:
        assert record.reason == "threshold"
        assert record.diverged_at == record.losses.size - 1
        assert record.losses[-1] > DIVERGENCE_THRESHOLD


@settings(max_examples=80)
@given(
    kind=st.sampled_from(OptimizerKind),
    placement=st.sampled_from(EpsilonPlacement),
    bias_correction=st.booleans(),
    init_mode=st.sampled_from(InitMode),
    epsilon=st.sampled_from((0.0, 1e-8, 1e-3)),
    betas=st.tuples(st.sampled_from((0.0, 0.5, 0.9, 0.95)), st.sampled_from((0.0, 0.9, 0.999))),
    batch_size=st.integers(1, 9),
    rates=st.lists(st.sampled_from(RATES), min_size=1, max_size=4, unique=True),
    n_seeds=st.integers(1, 3),
    layout=st.sampled_from(Layout),
)
def test_batch_equals_reference_stepper(
    kind, placement, bias_correction, init_mode, epsilon, betas, batch_size, rates, n_seeds, layout
):
    beta1, beta2 = betas
    if kind is OptimizerKind.ADAM_EQUAL_BETA:
        beta2 = beta1
    config = OptimizerConfig(
        kind,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        epsilon_placement=placement,
        bias_correction=bias_correction,
        init_mode=init_mode,
    )
    problem = build_problem(BlockSpec.for_layout(layout), seed=len(rates))
    steps = 40
    runs = [
        RunSpec(config, lr, initial_point(problem.dim, seed), seed, f"cell:{lr!r}")
        for lr in rates
        for seed in range(n_seeds)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        batch = run_batch(problem, runs, steps, batch_size)
        for run, got in zip(runs, batch):
            assert_same_run(reference_run(problem, *run[:2], steps, batch_size, *run[2:]), got)
            assert_divergence_fields(got)


def test_rates_cover_both_divergence_reasons():
    """The example rates above reach both ways of diverging."""
    problem = build_problem(BlockSpec.heterogeneous(), seed=1)
    config = OptimizerConfig(OptimizerKind.SGD, beta1=0.0)
    runs = [RunSpec(config, lr, initial_point(9, 0), 0) for lr in RATES]
    with np.errstate(over="ignore", invalid="ignore"):
        reasons = {record.reason for record in run_batch(problem, runs, 40, 3)}
    assert reasons == {None, "threshold", "non_finite"}


class TestDivergenceReasons:
    """Full-batch SGD without momentum over 5 steps, too few for a warmup: every step is ``w - lr*H w``."""

    def setup_method(self):
        self.problem = build_problem(BlockSpec.heterogeneous(), seed=2)
        self.config = OptimizerConfig(OptimizerKind.SGD, beta1=0.0)
        self.w0 = initial_point(9, 0)

    def run(self, lr):
        with np.errstate(over="ignore", invalid="ignore"):
            return run_experiment(self.problem, self.config, lr, 5, 9, self.w0, 0)

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
    import adamlab.quadbench as quadbench

    def no_draw(*args, **kwargs):
        raise AssertionError("rows drawn for an invalid batch size")

    rng = np.random.default_rng(0)
    problem = build_problem(BlockSpec.heterogeneous(), seed=0)
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
    import adamlab.quadbench as quadbench

    def no_draw(*args, **kwargs):
        raise AssertionError("rows drawn for an invalid schedule")

    monkeypatch.setattr(quadbench, "draw_rows", no_draw)
    problem = build_problem(BlockSpec.heterogeneous(), seed=0)
    runs = [RunSpec(OptimizerConfig(OptimizerKind.SIGNUM), lr, initial_point(9, 0), 0) for lr in rates]
    with pytest.raises(ValueError, match=re.escape(message)):
        run_batch(problem, runs, steps, 3)


@settings(max_examples=50)
@given(seed=st.integers(0, 2**32 - 1), batch_size=st.integers(1, 9), n_runs=st.integers(1, 5))
def test_stacked_gradient_and_loss_match_one_run_forms(seed, batch_size, n_runs):
    """Row r of the stacked forms equals the one-run vector expressions bitwise."""
    rng = np.random.default_rng(seed)
    problem = build_problem(BlockSpec.homogeneous(), seed=seed % 7)
    w = rng.standard_normal((n_runs, 9)) * 10.0 ** rng.integers(-6, 6, size=(n_runs, 1))
    rows = draw_rows(rng, 9, n_runs, batch_size)
    g = subset_gradient(problem, w, rows)
    losses = problem.loss(w)
    for r in range(n_runs):
        xb = problem.design[rows[r]]
        g_r = (9 / batch_size) * (xb.T @ (xb @ w[r]))
        loss_r = 0.5 * float(w[r] @ (problem.hessian @ w[r]))
        assert np.array_equal(g[r], g_r)
        assert np.array_equal(subset_gradient(problem, w[r], rows[r]), g_r)
        assert losses[r] == loss_r == problem.loss(w[r])


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


def assert_same_record(expected: RunRecord, got: RunRecord) -> None:
    assert_same_run(expected, got)
    assert (got.diverged_at, got.reason) == (expected.diverged_at, expected.reason)


@pytest.mark.parametrize("init_mode", InitMode)
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
def test_record_does_not_depend_on_its_neighbours(kind, init_mode, mix, layout):
    """A run's record in a mixed batch is its record alone, bit for bit, however its neighbours end."""
    problem = build_problem(BlockSpec.for_layout(layout), seed=len(mix))
    steps = 30
    runs = []
    for i, (lr, beta1, beta2) in enumerate(mix):
        beta2 = beta1 if kind is OptimizerKind.ADAM_EQUAL_BETA else beta2
        config = OptimizerConfig(kind, beta1=beta1, beta2=beta2, init_mode=init_mode)
        runs.append(RunSpec(config, lr, initial_point(problem.dim, i % 2), i % 2, f"run{i}:lr={lr!r}"))
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = run_batch(problem, runs, steps, 3)
        for run, got in zip(runs, mixed):
            assert_same_record(run_experiment(problem, *run[:2], steps, 3, *run[2:]), got)


def test_minus_infinite_loss_ends_the_run_unrecorded(monkeypatch):
    """``quad --lr 1e300`` on the homogeneous layout: 0.5 w^T H w overflows to -inf at step 1."""
    seen = []
    loss = QuadraticProblem.loss

    def recording_loss(self, w):
        seen.append(loss(self, w))
        return seen[-1]

    monkeypatch.setattr(QuadraticProblem, "loss", recording_loss)
    problem = build_problem(BlockSpec.homogeneous(), derive_seed(0, "problem", "hom"))
    config = default_quad_config(OptimizerKind.ADAM_EQUAL_BETA)
    runs = [RunSpec(config, 1e300, initial_point(9, seed), seed, make_config_id("hom", "adameq", 1e300)) for seed in (0, 1)]
    # a slow neighbour keeps the batch stepping after both overflowing runs have ended
    runs.append(RunSpec(config, 2.0**-7, initial_point(9, 0), 0, "slow"))
    with np.errstate(over="ignore", invalid="ignore"):
        records = run_batch(problem, runs, 50, 3)
    assert len(seen) == 50
    for i, record in enumerate(records[:2]):
        assert seen[1][i] == -math.inf
        assert (record.diverged, record.diverged_at, record.reason) == (True, 1, "non_finite")
        assert record.losses.size == 1 and np.isfinite(record.losses[0])
        # an ended run stays in the arrays at zero
        assert np.all(np.array(seen[2:])[:, i] == 0.0)
    assert not records[2].diverged and records[2].losses.size == 50


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(OptimizerKind),
    bias_correction=st.booleans(),
    init_mode=st.sampled_from(InitMode),
    epsilon=st.sampled_from((0.0, 1e-8)),
    pairs=st.lists(st.tuples(st.sampled_from(MIXED_BETAS), st.sampled_from(MIXED_BETAS)), min_size=2, max_size=4),
    rates=st.lists(st.sampled_from(RATES[:5]), min_size=1, max_size=2, unique=True),
    n_seeds=st.integers(1, 2),
    layout=st.sampled_from(Layout),
)
def test_mixed_momentum_batch_equals_batch_per_pair_and_reference(
    kind, bias_correction, init_mode, epsilon, pairs, rates, n_seeds, layout
):
    """Runs that differ in momentum step together, beside ended runs that keep their beta rows."""
    problem = build_problem(BlockSpec.for_layout(layout), seed=len(pairs))
    steps = 24
    settings = dict(epsilon=epsilon, bias_correction=bias_correction, init_mode=init_mode)
    # the drop-out rates come first, so every later run steps on beside ended ones
    runs = mixed_runs(kind, pairs, [*DROP_OUT_RATES, *rates], n_seeds, steps, **settings)
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = run_batch(problem, runs, steps, 3)
        per_pair: dict[tuple[float, float], list[int]] = {}
        for i, run in enumerate(runs):
            per_pair.setdefault((run.config.beta1, run.config.beta2), []).append(i)
        for own in per_pair.values():
            alone = run_batch(problem, [runs[i] for i in own], steps, 3)
            for i, record in zip(own, alone):
                assert_same_record(record, mixed[i])
        for run, got in zip(runs, mixed):
            assert_same_run(reference_run(problem, *run[:2], steps, 3, *run[2:]), got)
            assert_divergence_fields(got)
    assert {record.reason for record in mixed} >= {"threshold", "non_finite"}


def test_bias_correction_powers_are_python_powers(monkeypatch):
    """Pinned: numpy's power of 0.9 at step 12 is one ulp off Python's, and the engine must not use it."""
    assert (np.array([[0.9]]) ** 12)[0, 0] != 0.9**12  # numpy 2.4.6; without it this case pins nothing
    import adamlab.quadbench as quadbench

    seen = []

    def recording_moments(config, state, powers=None):
        seen.append(powers)
        return corrected_moments(config, state, powers)

    monkeypatch.setattr(quadbench, "corrected_moments", recording_moments)
    problem = build_problem(BlockSpec.heterogeneous(), seed=3)
    runs = mixed_runs(OptimizerKind.ADAM, [(0.9, 0.9), (0.95, 0.9)], [2.0**-7], 2, 16)
    batch = run_batch(problem, runs, 16, 3)
    p1, p2 = seen[11]  # after step 12
    assert p1[:, 0].tolist() == [0.9**12] * 2 + [0.95**12] * 2
    assert p2[:, 0].tolist() == [0.9**12] * 4
    for run, got in zip(runs, batch):
        assert_same_run(reference_run(problem, *run[:2], 16, 3, *run[2:]), got)


@pytest.mark.parametrize("kind", [OptimizerKind.ADAM_EQUAL_BETA, OptimizerKind.ADAM])
def test_block_means_match_reference_for_unequal_blocks(kind):
    blocks = ((1.0, 2.0, 3.0, 4.0), (5.0,), (6.0, 7.0))
    problem = build_problem(BlockSpec(blocks, Layout.HETEROGENEOUS), seed=5)
    config = OptimizerConfig(kind, beta1=0.9, beta2=0.9)
    runs = [
        RunSpec(config, lr, initial_point(problem.dim, seed), seed, f"lr={lr!r}")
        for lr in (2.0**-9, 2.0**-4)
        for seed in range(2)
    ]
    for run, got in zip(runs, run_batch(problem, runs, 30, 2)):
        assert_same_run(reference_run(problem, *run[:2], 30, 2, *run[2:]), got)


@pytest.mark.parametrize("start", [np.nan, 1e307])
def test_batch_rejects_a_non_finite_gradient(start):
    # a finite start point can still overflow the first gradient
    problem = build_problem(BlockSpec.heterogeneous(), seed=0)
    w0 = np.full(9, start)
    run = RunSpec(OptimizerConfig(OptimizerKind.SIGNUM), 0.01, w0, 0)
    with pytest.raises(ValueError, match="non-finite"):
        run_batch(problem, [run], 5, 3)


def test_batch_rejects_configs_that_differ_beyond_betas():
    problem = build_problem(BlockSpec.heterogeneous(), seed=0)
    for other in (
        OptimizerConfig(OptimizerKind.ADAM, beta1=0.9, epsilon=0.0),
        OptimizerConfig(OptimizerKind.ADAM, beta1=0.9, bias_correction=False),
        OptimizerConfig(OptimizerKind.RMSPROP, beta2=0.9),
    ):
        runs = [
            RunSpec(OptimizerConfig(OptimizerKind.ADAM, beta1=0.8, beta2=0.9), 0.01, initial_point(9, 0), 0),
            RunSpec(other, 0.01, initial_point(9, 1), 1),
        ]
        with pytest.raises(ValueError, match="differ only in beta1 and beta2"):
            run_batch(problem, runs, 5, 3)


def test_skipping_variance_snapshots_changes_nothing_else():
    problem = build_problem(BlockSpec.homogeneous(), seed=4)
    runs = mixed_runs(OptimizerKind.ADAM, [(0.9, 0.95), (0.5, 0.999)], [2.0**-5, 1e300], 2, 20)
    with np.errstate(over="ignore", invalid="ignore"):
        tracked = run_batch(problem, runs, 20, 3)
        skipped = run_batch(problem, runs, 20, 3, track_delta=False)
    for full, lean in zip(tracked, skipped):
        assert full.delta_block_means is not None and lean.delta_block_means is None
        assert np.array_equal(full.losses, lean.losses)
        assert (full.diverged, full.diverged_at, full.reason) == (lean.diverged, lean.diverged_at, lean.reason)


# ---------------------------------------------------------------------------
# sweep.csv against the per-(optimizer, betas) batches it used to be built from


def reference_sweep_batch(payload) -> list[list[str]]:
    """The former ``cli._sweep_batch``, one (optimizer, betas) pair per batch.

    Verbatim apart from the engine call, which passes the pair's one config
    with each cell as :func:`run_cell` now takes it, and no longer passes the
    warmup fraction, now the one fraction of :func:`lr_at`.
    """
    (problem, name, lrs, beta1, beta2, starts, steps, batch_size) = payload
    layout = problem.spec.layout.value
    suffix = f":b1={beta1:.17g}:b2={beta2:.17g}"
    config = default_quad_config(OptimizerKind(name), beta1, beta2)
    per_cell = run_cell(
        problem,
        [(config, lr, make_config_id(layout, name, lr) + suffix) for lr in lrs],
        starts,
        steps,
        batch_size,
    )
    rows = []
    for lr, records in zip(lrs, per_cell):
        n_diverged = sum(record.diverged for record in records)
        if n_diverged == len(records):
            status = "all_diverged"
        elif n_diverged:
            status = "partial"
        else:
            status = "ok"
        median, q25, q75 = loss_quantiles([record.final_loss() for record in records])
        rows.append(
            [
                layout,
                name,
                fmt_float(lr),
                fmt_float(beta1),
                fmt_float(beta2),
                str(len(records)),
                fmt_float(median),
                fmt_float(q25),
                fmt_float(q75),
                str(n_diverged),
                status,
            ]
        )
    return rows


def test_sweep_csv_equals_batch_per_pair(tmp_path, capsys):
    names = ("sgd", "signum", "adameq", "adam", "rmsprop")
    kappas, n_seeds, steps = (0.5, 1.0, 2.0), 2, 60
    argv = ["sweep", *(f"--optim={name}" for name in names), "--kappas", *map(str, kappas)]
    argv += ["--seeds", str(n_seeds), "--steps", str(steps), "--out", str(tmp_path / "sweep")]
    assert main(argv) == EXIT_OK
    capsys.readouterr()

    cfg = SweepConfig()
    problem = build_problem(BlockSpec.heterogeneous(), derive_seed(0, "problem", "het"))
    betas = beta_grid(cfg.beta_base, kappas)
    starts = [(seed, initial_point(problem.dim, seed)) for seed in range(n_seeds)]
    lrs = [float(lr) for lr in cfg.lr_grid]
    payloads = [
        (problem, name, lrs, float(beta1), float(beta2), starts, steps, cfg.batch_size)
        for name in names
        for beta1, beta2 in _beta_pairs(OptimizerKind(name), betas, False)
    ]
    with np.errstate(over="ignore", invalid="ignore"):
        rows = [row for payload in payloads for row in reference_sweep_batch(payload)]
    assert {row[10] for row in rows} == {"ok", "partial", "all_diverged"}
    header = ["layout", "optimizer", "lr", "beta1", "beta2", "n_seeds", "median_final", "q25", "q75", "n_diverged", "status"]
    _write_csv(tmp_path / "reference.csv", header, rows)
    assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
