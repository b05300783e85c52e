"""Problem construction invariants, gradient unbiasedness, runner determinism."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamlab.core import WARMUP_FRACTION
from adamlab.optim import OptimizerConfig, OptimizerKind
from adamlab.quadbench import (
    BLOCK_SLICES,
    BLOCKS,
    Layout,
    RunSpec,
    build_problem,
    default_quad_config,
    derive_seed,
    haar_rotations,
    initial_point,
    loss_quantiles,
    run_batch,
    run_experiment,
    stochastic_grad,
    subset_gradient,
    tune_and_compare,
)

EIGENVALUES = sorted([1, 2, 3, 99, 100, 101, 4998, 4999, 5000])


def two_decomposition_rotation(rng: np.random.Generator) -> np.ndarray:
    """The Haar draw written out the long way: ``eigvalsh`` for the gap test, then ``eigh``, then a sign per column."""
    for _ in range(100):
        a = rng.standard_normal((3, 3))
        evals = np.linalg.eigvalsh(a @ a.T)
        if np.min(np.diff(evals)) <= 1e-12 * max(evals[-1], 1e-300):
            continue
        _, evecs = np.linalg.eigh(a @ a.T)
        evecs = evecs[:, ::-1].copy()
        for j in range(3):
            col = evecs[:, j]
            if col[np.argmax(np.abs(col))] < 0:
                evecs[:, j] = -col
        return evecs
    raise ValueError("could not sample a non-degenerate rotation in 100 draws")


def sequential_problem(layout: Layout, base_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The Hessian and design of ``layout`` built block by block, one two-decomposition draw and two products each."""
    rng = np.random.default_rng(derive_seed(base_seed, "problem", layout.value))
    hessian, design = np.zeros((9, 9)), np.zeros((9, 9))
    for sl, block in zip(BLOCK_SLICES, BLOCKS[layout]):
        q = two_decomposition_rotation(rng)
        lam = np.asarray(block, dtype=float)
        h_b = q @ np.diag(lam) @ q.T
        x_b = q @ np.diag(np.sqrt(lam)) @ q.T
        hessian[sl, sl] = (h_b + h_b.T) / 2.0
        design[sl, sl] = (x_b + x_b.T) / 2.0
    return hessian, design


class StackDraws:
    """A stand-in generator whose ``standard_normal`` returns the given stacks in turn, and counts its calls."""

    def __init__(self, *stacks):
        self.stacks, self.calls = list(stacks), 0

    def standard_normal(self, shape):
        assert shape == (3, 3, 3)
        self.calls += 1
        return self.stacks[min(self.calls, len(self.stacks)) - 1]


class TestRotations:
    @pytest.mark.parametrize("layout", Layout, ids=lambda layout: layout.value)
    def test_one_decomposition_equals_two(self, layout):
        """One stacked ``eigh`` gives the rotations, and so the problems, of three sequential two-decomposition draws bit for bit."""
        for base_seed in range(500):
            ours, theirs = (np.random.default_rng(derive_seed(base_seed, "problem", layout.value)) for _ in range(2))
            expected = np.stack([two_decomposition_rotation(theirs) for _ in BLOCK_SLICES])
            assert haar_rotations(ours).tobytes() == expected.tobytes()
            problem = build_problem(layout, base_seed)
            hessian, design = sequential_problem(layout, base_seed)
            assert problem.hessian.tobytes() == hessian.tobytes()
            assert problem.design.tobytes() == design.tobytes()

    def test_orthogonality(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            for q in haar_rotations(rng):
                np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_fixed_seed_reproduces_bitwise(self):
        q1 = haar_rotations(np.random.default_rng(99))
        q2 = haar_rotations(np.random.default_rng(99))
        np.testing.assert_array_equal(q1, q2)

    def test_degenerate_draws_raise_value_error(self):
        # a rank-one factor: the eigenbasis of A A^T is never unique
        draws = StackDraws(np.ones((3, 3, 3)))
        with pytest.raises(ValueError, match="non-degenerate rotation"):
            haar_rotations(draws)
        assert draws.calls == 100

    def test_degenerate_stack_is_redrawn_whole(self):
        """One degenerate block discards the stack's other two blocks with it: the next stack is used whole."""
        rng = np.random.default_rng(42)
        first, second = rng.standard_normal((3, 3, 3)), rng.standard_normal((3, 3, 3))
        first[1] = 1.0
        draws = StackDraws(first, second)
        rotations = haar_rotations(draws)
        assert draws.calls == 2
        assert rotations.tobytes() == haar_rotations(StackDraws(second)).tobytes()

    def test_sign_convention_makes_columns_canonical(self):
        rng = np.random.default_rng(41)
        for q in haar_rotations(rng):
            for j in range(3):
                col = q[:, j]
                assert col[np.argmax(np.abs(col))] > 0


class TestProblemConstruction:
    @pytest.mark.parametrize(
        "layout,traces",
        [
            (Layout.HETEROGENEOUS, [6.0, 300.0, 14997.0]),
            (Layout.HOMOGENEOUS, [5098.0, 5101.0, 5104.0]),
        ],
        ids=["het", "hom"],
    )
    def test_block_traces_are_rotation_invariant(self, layout, traces):
        problem = build_problem(layout, 0)
        for sl, expected in zip(BLOCK_SLICES, traces):
            assert np.trace(problem.hessian[sl, sl]) == pytest.approx(expected, rel=1e-12)

    def test_design_squares_to_hessian(self):
        problem = build_problem(Layout.HETEROGENEOUS, 1)
        err = np.max(np.abs(problem.design.T @ problem.design - problem.hessian))
        assert err <= 1e-9

    def test_block_diagonal_structure(self):
        problem = build_problem(Layout.HOMOGENEOUS, 2)
        mask = np.ones((9, 9), dtype=bool)
        for sl in BLOCK_SLICES:
            mask[sl, sl] = False
        assert np.all(problem.hessian[mask] == 0.0)
        assert np.all(problem.design[mask] == 0.0)

    @pytest.mark.parametrize("layout", Layout, ids=["het", "hom"])
    def test_spectrum_preserved_across_100_seeds(self, layout):
        # rotation invariants per block: trace, determinant, trace of the square
        for seed in range(100):
            problem = build_problem(layout, seed)
            for sl, block in zip(BLOCK_SLICES, BLOCKS[layout]):
                h = problem.hessian[sl, sl]
                lam = np.asarray(block)
                assert np.trace(h) == pytest.approx(lam.sum(), rel=1e-9)
                assert np.linalg.det(h) == pytest.approx(lam.prod(), rel=1e-9)
                assert np.trace(h @ h) == pytest.approx((lam**2).sum(), rel=1e-9)

    def test_same_eigenvalue_multiset_across_layouts(self):
        het = [ev for block in BLOCKS[Layout.HETEROGENEOUS] for ev in block]
        hom = [ev for block in BLOCKS[Layout.HOMOGENEOUS] for ev in block]
        assert sorted(het) == sorted(hom) == EIGENVALUES

    def test_loss_identity_half_norm_squared(self):
        problem = build_problem(Layout.HETEROGENEOUS, 3)
        rng = np.random.default_rng(43)
        for _ in range(50):
            w = rng.standard_normal(9)
            direct = problem.loss(w)
            via_design = 0.5 * float(np.linalg.norm(problem.design @ w) ** 2)
            assert via_design == pytest.approx(direct, rel=1e-10)


class TestStochasticGradient:
    def setup_method(self):
        self.problem = build_problem(Layout.HETEROGENEOUS, 4)
        self.rng = np.random.default_rng(44)

    def test_full_batch_recovers_exact_gradient(self):
        w = self.rng.standard_normal(9)
        g = subset_gradient(self.problem, w, self.rng.permutation(9))
        expected = self.problem.hessian @ w
        np.testing.assert_allclose(g, expected, rtol=1e-12)

    def test_zero_point_gives_zero(self):
        for batch in (1, 3, 9):
            g = subset_gradient(self.problem, np.zeros(9), self.rng.permutation(9)[:batch])
            np.testing.assert_array_equal(g, np.zeros(9))

    @pytest.mark.parametrize("batch", [1, 3])
    def test_exhaustive_average_is_unbiased(self, batch):
        w = self.rng.standard_normal(9)
        subsets = list(itertools.combinations(range(9), batch))
        total = np.zeros(9)
        for rows in subsets:
            total += subset_gradient(self.problem, w, rows)
        avg = total / len(subsets)
        expected = self.problem.hessian @ w
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(avg - expected)) / scale <= 1e-12

    def test_batch_size_validated(self):
        # the one direct test of stochastic_grad, which only perfbench/tracer.py still wraps
        with pytest.raises(ValueError):
            stochastic_grad(self.problem, np.zeros(9), 0, self.rng)
        with pytest.raises(ValueError):
            stochastic_grad(self.problem, np.zeros(9), 10, self.rng)


class TestRunExperiment:
    def setup_method(self):
        self.problem = build_problem(Layout.HETEROGENEOUS, 5)
        self.w0 = initial_point(9, seed=0)

    def run(self, config, lr, steps, batch_size, seed=0, config_id=""):
        return run_batch(self.problem, [RunSpec(config, lr, self.w0, seed, config_id)], steps, batch_size)[0]

    def test_initial_point_radius_fixed_per_seed(self):
        assert np.linalg.norm(self.w0) == pytest.approx(3.0)
        np.testing.assert_array_equal(self.w0, initial_point(9, seed=0))
        assert not np.array_equal(self.w0, initial_point(9, seed=1))

    def test_zero_lr_keeps_loss_constant(self):
        record = self.run(default_quad_config(OptimizerKind.SGD), 0.0, 50, 3)
        np.testing.assert_allclose(record.losses, self.problem.loss(self.w0), rtol=1e-12)

    def test_full_batch_descent_is_monotone(self):
        config = OptimizerConfig(OptimizerKind.SGD, beta1=0.0)
        record = self.run(config, 1e-5, 200, 9)
        assert not record.diverged
        assert np.all(np.diff(record.losses) <= 1e-12)

    @pytest.mark.parametrize("batch_size", [3, 9])
    def test_equal_seeds_reproduce_records_bitwise(self, batch_size):
        config = default_quad_config(OptimizerKind.ADAM_EQUAL_BETA)
        # the one direct test of run_experiment, which only perfbench/tracer.py still wraps
        a = run_experiment(self.problem, config, 0.01, 100, batch_size, self.w0, 7, config_id="x")
        b = self.run(config, 0.01, 100, batch_size, seed=7, config_id="x")
        np.testing.assert_array_equal(a.losses, b.losses)
        np.testing.assert_array_equal(a.delta_block_means, b.delta_block_means)

    def test_divergence_flagged_not_raised(self):
        config = OptimizerConfig(OptimizerKind.SGD, beta1=0.9)
        record = self.run(config, 4.0, 200, 9)
        assert record.diverged
        assert record.final_loss() == math.inf
        assert np.all(np.isfinite(record.losses))

    def test_delta_traces_nonnegative_and_present_for_adaptive(self):
        config = default_quad_config(OptimizerKind.ADAM_EQUAL_BETA)
        record = self.run(config, 0.008, 100, 3)
        assert record.delta_block_means.shape == (100, 3)
        assert np.all(record.delta_block_means >= 0)
        sgd = self.run(default_quad_config(OptimizerKind.SGD), 0.008, 100, 3)
        assert sgd.delta_block_means is None

    def test_block_deltas_separate_on_heterogeneous_landscape(self):
        config = default_quad_config(OptimizerKind.ADAM_EQUAL_BETA)
        record = self.run(config, 0.008, 300, 3)
        at_peak = record.delta_block_means[round(WARMUP_FRACTION * 300)]
        assert at_peak.max() >= 2.0 * at_peak.min()


class TestTuning:
    def test_small_grid_runs_and_orders_results(self):
        problem = build_problem(Layout.HETEROGENEOUS, 6)
        optimizers = {
            "adameq": default_quad_config(OptimizerKind.ADAM_EQUAL_BETA),
            "sgd": default_quad_config(OptimizerKind.SGD),
        }
        lr_grid = (2.0**-10, 2.0**-7, 2.0**-4)
        results = tune_and_compare(problem, optimizers, lr_grid=lr_grid, seeds=(0, 1, 2), steps=150, batch_size=3)
        assert list(results) == ["adameq", "sgd"]
        for cell in results.values():
            assert cell.n_diverged < 3
            assert cell.lr in lr_grid
            assert len(cell.records) == 3
            median, q25, q75 = cell.quantiles
            assert q25 <= median <= q75

    def test_summary_is_deterministic(self):
        problem = build_problem(Layout.HOMOGENEOUS, 6)
        optimizers = {"signum": default_quad_config(OptimizerKind.SIGNUM)}
        kwargs = dict(lr_grid=(2.0**-8, 2.0**-5), seeds=(0, 1), steps=100, batch_size=3)
        a = tune_and_compare(problem, optimizers, **kwargs)
        b = tune_and_compare(problem, optimizers, **kwargs)
        assert a["signum"].lr == b["signum"].lr
        assert a["signum"].quantiles == b["signum"].quantiles
        for ra, rb in zip(a["signum"].records, b["signum"].records):
            np.testing.assert_array_equal(ra.losses, rb.losses)

    def test_empty_grid_rejected(self):
        problem = build_problem(Layout.HETEROGENEOUS, 6)
        with pytest.raises(ValueError):
            tune_and_compare(problem, {"sgd": default_quad_config(OptimizerKind.SGD)}, (), (0,), 10, 3)


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
        assert derive_seed(3, "a", 1) != derive_seed(3, "a", 2)
        assert derive_seed(3, "a", 1) != derive_seed(4, "a", 1)

    def test_frozen_value_guards_the_hash_choice(self):
        # catches accidental changes to the documented derivation
        assert derive_seed(0, "w0") == 10595345205653505870


def test_loss_quantiles_handle_divergence():
    assert loss_quantiles(np.array([[math.inf, math.inf]])).tolist() == [[math.inf] * 3]
    diverging, finite = loss_quantiles(np.array([[1.0, math.inf, math.inf, math.inf], [1.0, 2.0, 3.0, 4.0]]))
    med, q25, q75 = diverging
    assert med == math.inf and q75 == math.inf
    assert q25 == math.inf or math.isfinite(q25)
    assert finite[0] == pytest.approx(2.5)


def reference_loss_quantiles(finals) -> tuple[float, float, float]:
    """The former one-cell ``loss_quantiles``, verbatim."""
    finals = np.asarray(finals, dtype=float)
    if np.all(np.isinf(finals)):
        return math.inf, math.inf, math.inf
    with np.errstate(invalid="ignore"):
        values = (
            float(np.median(finals)),
            float(np.quantile(finals, 0.25)),
            float(np.quantile(finals, 0.75)),
        )
    return tuple(math.inf if math.isnan(v) else v for v in values)


#: final losses as the runner reports them: finite and nonnegative, or +inf for a diverged run
FINAL_LOSS = st.one_of(
    st.just(math.inf),
    st.floats(min_value=0.0, max_value=1e12),
    st.floats(min_value=0.0, max_value=1e300),
)


@settings(max_examples=100)
@given(
    finals=st.integers(1, 6).flatmap(
        lambda cells: st.integers(1, 12).flatmap(
            lambda seeds: st.lists(st.lists(FINAL_LOSS, min_size=seeds, max_size=seeds), min_size=cells, max_size=cells)
        )
    )
)
def test_batched_loss_quantiles_equal_one_cell_at_a_time(finals):
    """Every row of the (cells, seeds) call equals the former function bitwise."""
    stats = loss_quantiles(np.array(finals))
    assert stats.shape == (len(finals), 3)
    for row, got in zip(finals, stats.tolist()):
        expected = list(map(repr, reference_loss_quantiles(row)))  # repr tells 0.0 from -0.0
        assert list(map(repr, got)) == expected
