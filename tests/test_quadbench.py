"""Problem construction invariants, gradient unbiasedness, runner determinism."""
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamlab.core import WARMUP_FRACTION
from adamlab.optim import OptimizerConfig, OptimizerKind
from adamlab.quadbench import (
    BlockSpec,
    Layout,
    RunSpec,
    build_problem,
    default_quad_config,
    derive_seed,
    haar_rotation,
    initial_point,
    loss_quantiles,
    rotation_from_factor,
    run_batch,
    run_experiment,
    stochastic_grad,
    subset_gradient,
    tune_and_compare,
)

EIGENVALUES = sorted([1, 2, 3, 99, 100, 101, 4998, 4999, 5000])


class TestRotations:
    def test_orthogonality(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            q = haar_rotation(rng)
            np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-12)

    def test_fixed_seed_reproduces_bitwise(self):
        q1 = haar_rotation(np.random.default_rng(99))
        q2 = haar_rotation(np.random.default_rng(99))
        np.testing.assert_array_equal(q1, q2)

    def test_degenerate_draws_raise_value_error(self):
        # a rank-one factor: the eigenbasis of A A^T is never unique
        with pytest.raises(ValueError, match="non-degenerate rotation"):
            haar_rotation(types.SimpleNamespace(standard_normal=np.ones))

    def test_identity_factor_decomposes_to_identity(self):
        # identity up to column order (the eigenvalues are all equal) and sign
        q = rotation_from_factor(np.eye(3))
        assert np.all((q == 0.0) | (q == 1.0))
        np.testing.assert_array_equal(q.sum(axis=0), np.ones(3))
        np.testing.assert_array_equal(q.sum(axis=1), np.ones(3))

    def test_sign_convention_makes_columns_canonical(self):
        rng = np.random.default_rng(41)
        q = haar_rotation(rng)
        for j in range(3):
            col = q[:, j]
            assert col[np.argmax(np.abs(col))] > 0


class TestProblemConstruction:
    @pytest.mark.parametrize(
        "spec,traces",
        [
            (BlockSpec.heterogeneous(), [6.0, 300.0, 14997.0]),
            (BlockSpec.homogeneous(), [5098.0, 5101.0, 5104.0]),
        ],
    )
    def test_block_traces_are_rotation_invariant(self, spec, traces):
        problem = build_problem(spec, seed=0)
        for sl, expected in zip(problem.block_slices, traces):
            assert np.trace(problem.hessian[sl, sl]) == pytest.approx(expected, rel=1e-12)

    def test_design_squares_to_hessian(self):
        problem = build_problem(BlockSpec.heterogeneous(), seed=1)
        err = np.max(np.abs(problem.design.T @ problem.design - problem.hessian))
        assert err <= 1e-9

    def test_block_diagonal_structure(self):
        problem = build_problem(BlockSpec.homogeneous(), seed=2)
        mask = np.ones((9, 9), dtype=bool)
        for sl in problem.block_slices:
            mask[sl, sl] = False
        assert np.all(problem.hessian[mask] == 0.0)
        assert np.all(problem.design[mask] == 0.0)

    @pytest.mark.parametrize("spec", [BlockSpec.heterogeneous(), BlockSpec.homogeneous()])
    def test_spectrum_preserved_across_100_seeds(self, spec):
        # rotation invariants per block: trace, determinant, trace of the square
        for seed in range(100):
            problem = build_problem(spec, seed=seed)
            for sl, block in zip(problem.block_slices, spec.blocks):
                h = problem.hessian[sl, sl]
                lam = np.asarray(block)
                assert np.trace(h) == pytest.approx(lam.sum(), rel=1e-9)
                assert np.linalg.det(h) == pytest.approx(lam.prod(), rel=1e-9)
                assert np.trace(h @ h) == pytest.approx((lam**2).sum(), rel=1e-9)

    def test_same_eigenvalue_multiset_across_layouts(self):
        het = [ev for block in BlockSpec.heterogeneous().blocks for ev in block]
        hom = [ev for block in BlockSpec.homogeneous().blocks for ev in block]
        assert sorted(het) == sorted(hom) == EIGENVALUES

    def test_loss_identity_half_norm_squared(self):
        problem = build_problem(BlockSpec.heterogeneous(), seed=3)
        rng = np.random.default_rng(43)
        for _ in range(50):
            w = rng.standard_normal(9)
            direct = problem.loss(w)
            via_design = 0.5 * float(np.linalg.norm(problem.design @ w) ** 2)
            assert via_design == pytest.approx(direct, rel=1e-10)

    def test_positive_eigenvalues_required(self):
        with pytest.raises(ValueError):
            BlockSpec(((1.0, -2.0, 3.0),), Layout.HETEROGENEOUS)


class TestStochasticGradient:
    def setup_method(self):
        self.problem = build_problem(BlockSpec.heterogeneous(), seed=4)
        self.rng = np.random.default_rng(44)

    def test_full_batch_recovers_exact_gradient(self):
        w = self.rng.standard_normal(9)
        g = subset_gradient(self.problem, w, self.rng.permutation(9))
        expected = self.problem.full_gradient(w)
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
        expected = self.problem.full_gradient(w)
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
        self.problem = build_problem(BlockSpec.heterogeneous(), seed=5)
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
        problem = build_problem(BlockSpec.heterogeneous(), seed=6)
        optimizers = {
            "adameq": default_quad_config(OptimizerKind.ADAM_EQUAL_BETA),
            "sgd": default_quad_config(OptimizerKind.SGD),
        }
        lr_grid = (2.0**-10, 2.0**-7, 2.0**-4)
        summary = tune_and_compare(problem, optimizers, lr_grid=lr_grid, seeds=(0, 1, 2), steps=150, batch_size=3)
        assert [r.label for r in summary.results] == ["adameq", "sgd"]
        for res in summary.results:
            assert not res.all_diverged
            assert res.best_lr in lr_grid
            assert len(res.records) == 3
            assert res.q25 <= res.median_final <= res.q75

    def test_summary_is_deterministic(self):
        problem = build_problem(BlockSpec.homogeneous(), seed=6)
        optimizers = {"signum": default_quad_config(OptimizerKind.SIGNUM)}
        kwargs = dict(lr_grid=(2.0**-8, 2.0**-5), seeds=(0, 1), steps=100, batch_size=3)
        a = tune_and_compare(problem, optimizers, **kwargs)
        b = tune_and_compare(problem, optimizers, **kwargs)
        assert a.result("signum").best_lr == b.result("signum").best_lr
        assert a.result("signum").median_final == b.result("signum").median_final
        for ra, rb in zip(a.result("signum").records, b.result("signum").records):
            np.testing.assert_array_equal(ra.losses, rb.losses)

    def test_empty_grid_rejected(self):
        problem = build_problem(BlockSpec.heterogeneous(), seed=6)
        with pytest.raises(ValueError):
            tune_and_compare(problem, {"sgd": default_quad_config(OptimizerKind.SGD)}, lr_grid=())


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(3, "a", 1) == derive_seed(3, "a", 1)
        assert derive_seed(3, "a", 1) != derive_seed(3, "a", 2)
        assert derive_seed(3, "a", 1) != derive_seed(4, "a", 1)

    def test_frozen_value_guards_the_hash_choice(self):
        # catches accidental changes to the documented derivation
        assert derive_seed(0, "w0") == 10595345205653505870


def test_loss_quantiles_handle_divergence():
    assert loss_quantiles([math.inf, math.inf]) == (math.inf, math.inf, math.inf)
    med, q25, q75 = loss_quantiles([1.0, math.inf, math.inf, math.inf])
    assert med == math.inf and q75 == math.inf
    assert q25 == math.inf or math.isfinite(q25)
    med, q25, q75 = loss_quantiles([1.0, 2.0, 3.0, 4.0])
    assert med == pytest.approx(2.5)


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
    """Every row of the (cells, seeds) call, and the 1-D call, equal the former function bitwise."""
    stats = loss_quantiles(np.array(finals))
    assert stats.shape == (len(finals), 3)
    for row, got in zip(finals, stats.tolist()):
        expected = list(map(repr, reference_loss_quantiles(row)))  # repr tells 0.0 from -0.0
        assert list(map(repr, got)) == expected
        assert list(map(repr, loss_quantiles(row))) == expected
        assert all(type(x) is float for x in loss_quantiles(row))
