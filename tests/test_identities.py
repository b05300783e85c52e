"""Numeric checks of the closed-form identities: two-form equality,
necessity of equal momentum parameters, mollifier and trust-region geometry."""
import math

import numpy as np
import pytest

from adamlab.core import InitMode
from adamlab.identities import (
    CompletionReport,
    ResidualReport,
    check_prop1,
    mollified_direction,
    prop2_condition,
    scalar_adam_trace,
    square_completion_margin,
    steepest_descent_minimizer,
    trust_radius,
)

BETA_GRID_ROWS = (0.8, 0.9, 0.95, 0.975, 0.9875)
BETA_GRID_COLS = (0.6, 0.8, 0.9, 0.95, 0.975, 0.9875, 0.99375, 0.996875)


class TestProp1:
    def test_constant_signal_first_sample_residual_zero(self):
        for c in (2.0, -0.7):
            report = check_prop1([c] * 50, 0.9, init_mode=InitMode.FIRST_SAMPLE)
            assert report.direction.max_abs_residual == 0.0
            trace = scalar_adam_trace([c] * 50, 0.9, InitMode.FIRST_SAMPLE)
            np.testing.assert_array_equal(trace["d_standard"], math.copysign(1.0, c))

    def test_standard_normal_signal(self):
        rng = np.random.default_rng(21)
        report = check_prop1(rng.standard_normal(1000), 0.95)
        assert report.direction.max_abs_residual <= 1e-9
        assert report.variance.max_abs_residual <= 1e-10
        assert report.passed

    def test_hand_recursion_two_steps(self):
        trace = scalar_adam_trace([1.0, -1.0], 0.5)
        assert trace["m"][1] == pytest.approx(-0.25)
        assert trace["v"][1] == pytest.approx(0.75)
        assert trace["delta"][1] == pytest.approx(0.6875)
        assert trace["v"][1] - trace["m"][1] ** 2 == pytest.approx(0.6875)

    def test_all_zero_prefix_uses_zero_convention(self):
        trace = scalar_adam_trace([0.0, 0.0, 1.0], 0.9)
        assert trace["d_standard"][0] == 0.0 and trace["d_variance"][0] == 0.0
        assert trace["d_standard"][2] != 0.0

    def test_report_invariant(self):
        report = ResidualReport.from_residuals("x", [1e-3, 5e-3], tolerance=1e-4)
        assert report.passed == (report.max_abs_residual <= report.tolerance)
        assert report.argmax_index == 1

    def test_nan_residual_fails(self):
        # negative control: argmax picks the first NaN, so the report cannot pass
        report = ResidualReport.from_residuals("x", [1e-12, math.nan, 0.0], tolerance=1e-4)
        assert math.isnan(report.max_abs_residual) and report.argmax_index == 1
        assert not report.passed

    def test_overflowing_signal_fails_variance_forms(self):
        # negative control: g*g overflows, so v - m**2 is inf - inf = NaN
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_prop1([1e200, -1e200, 3.0], 0.9)
        assert math.isnan(report.variance.max_abs_residual)
        assert not report.variance.passed and not report.passed

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            check_prop1([1.0, np.inf], 0.9)
        with pytest.raises(ValueError):
            check_prop1([1.0], 1.0)


class TestEqualBetaNecessity:
    def test_condition_examples(self):
        assert prop2_condition(0.95, 0.95) == 0.0
        assert prop2_condition(0.9, 0.95) == pytest.approx(0.0025, rel=1e-10)
        assert prop2_condition(0.9, 0.999) == pytest.approx(0.009801, rel=1e-10)

    def test_condition_zero_only_on_diagonal(self):
        for b1 in BETA_GRID_ROWS:
            for b2 in BETA_GRID_COLS:
                value = prop2_condition(b1, b2)
                if b1 == b2:
                    assert value == 0.0
                else:
                    assert value > 0.0

    def test_domain_is_open_interval(self):
        with pytest.raises(ValueError):
            prop2_condition(0.0, 0.5)
        with pytest.raises(ValueError):
            prop2_condition(0.5, 1.0)

    def test_completion_margin_vanishes_for_equal_betas(self):
        for beta in BETA_GRID_COLS:
            report = square_completion_margin(beta, beta)
            assert report.sqrt_defined
            assert report.margin <= 1e-12

    def test_completion_margin_example_pair(self):
        report = square_completion_margin(0.9, 0.95)
        # leftover = 0.81 * 0.05 / (0.05 - 0.01) = 1.0125
        assert report.leftover_coefficient == pytest.approx(1.0125, rel=1e-12)
        assert report.margin == pytest.approx(0.0625, rel=1e-10)

    def test_undefined_root_still_witnesses_mismatch(self):
        report = square_completion_margin(0.9, 0.999)
        assert not report.sqrt_defined
        assert report.leftover_coefficient == pytest.approx(-0.09, rel=1e-10)
        assert report.margin > 0.1

    def test_grid_margins_nonzero_off_diagonal(self):
        for b1 in BETA_GRID_ROWS:
            for b2 in BETA_GRID_COLS:
                if b1 == b2:
                    continue
                report = square_completion_margin(b1, b2)
                assert report.margin > 1e-6, (b1, b2)


class TestMollifierGeometry:
    def test_noiseless_limit_is_sign(self):
        assert mollified_direction(1.0, 0.0) == 1.0
        assert mollified_direction(-2.0, 0.0) == -1.0

    def test_half_at_three_to_one_noise(self):
        assert mollified_direction(1.0, 3.0) == pytest.approx(0.5)

    def test_zero_momentum_gives_zero(self):
        assert mollified_direction(0.0, 5.0) == 0.0
        assert trust_radius(0.0, 5.0) == 0.0

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            mollified_direction(1.0, -1e-9)
        with pytest.raises(ValueError):
            trust_radius(1.0, -1e-9)

    def test_trust_radius_examples(self):
        assert trust_radius(1.0, 0.0) == 1.0
        assert trust_radius(1.0, 3.0) == pytest.approx(0.5)
        assert trust_radius(0.1, 0.99) == pytest.approx(0.1)

    def test_magnitude_below_one_with_equality_iff_noiseless(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            m = float(rng.normal(scale=2.0))
            var = float(rng.exponential(scale=1.0))
            value = mollified_direction(m, var)
            assert abs(value) <= 1.0
            if m != 0 and var > 0:
                assert abs(value) < 1.0
        assert abs(mollified_direction(3.0, 0.0)) == 1.0

    def test_huge_momentum_stays_stable(self):
        assert mollified_direction(1e300, 1.0) == pytest.approx(1.0)

    def test_constrained_minimizer_is_mollified_direction(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            m = float(rng.normal(scale=3.0))
            var = float(rng.exponential(scale=2.0))
            radius = trust_radius(m, var)
            argmin = steepest_descent_minimizer(m, radius)
            assert argmin == pytest.approx(mollified_direction(m, var), abs=1e-12)

    def test_unit_trust_region_recovers_sign(self):
        # zero variance: the region is |theta| <= 1 and the minimizer is sign(m)
        assert steepest_descent_minimizer(2.5, trust_radius(2.5, 0.0)) == 1.0
        assert steepest_descent_minimizer(-2.5, trust_radius(-2.5, 0.0)) == -1.0
