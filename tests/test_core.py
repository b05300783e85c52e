"""Moving averages, bias correction, schedules, momentum grids."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adamlab.core import WARMUP_FRACTION, EmaBuffer, beta_grid, lr_at


class TestEmaBuffer:
    """``EmaBuffer``, which only perfbench/tracer.py still wraps."""

    def test_zero_init_single_step(self):
        buf = EmaBuffer(beta=0.5)
        assert buf.update(1.0) == pytest.approx(0.5)
        assert buf.step == 1

    def test_zero_init_stays_below_max_sample(self):
        rng = np.random.default_rng(0)
        buf = EmaBuffer(beta=0.8)
        seen_max = 0.0
        for _ in range(200):
            sample = rng.standard_normal(4)
            seen_max = max(seen_max, float(np.max(np.abs(sample))))
            buf.update(sample)
            assert np.all(np.abs(buf.value) <= seen_max + 1e-15)

    def test_linearity_in_the_signal(self):
        # power-of-two rescaling commutes exactly; generic scale to 1e-15
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((50, 3))
        a, b, c = EmaBuffer(beta=0.93), EmaBuffer(beta=0.93), EmaBuffer(beta=0.93)
        for s in samples:
            a.update(s)
            b.update(2.0 * s)
            c.update(3.0 * s)
        np.testing.assert_array_equal(b.value, 2.0 * a.value)
        np.testing.assert_allclose(c.value, 3.0 * a.value, rtol=1e-14)

    def test_bias_corrected_zero_init_recovers_constant(self):
        buf = EmaBuffer(beta=0.95)
        for step in range(1, 60):
            buf.update(4.0)
            corrected = buf.value / (1.0 - 0.95**step)
            np.testing.assert_allclose(corrected, 4.0, rtol=1e-12)

    def test_shape_mismatch_rejected(self):
        buf = EmaBuffer.zeros((3,), beta=0.9)
        with pytest.raises(ValueError, match="shape"):
            buf.update(np.ones(4))

    def test_beta_validated(self):
        with pytest.raises(ValueError):
            EmaBuffer(beta=1.0)
        with pytest.raises(ValueError):
            EmaBuffer(beta=-0.1)


def _bits(values) -> list[str]:
    return [float(x).hex() for x in np.ravel(values)]


class TestSchedule:
    """``lr_at`` over a 1000-step run with peak 0.008: 100 warmup steps, then 900 of cosine."""

    def test_warmup_end_hits_peak(self):
        assert lr_at(100, 1000, 0.008) == pytest.approx(0.008)

    def test_cosine_endpoint_hits_floor(self):
        assert lr_at(1000, 1000, 0.008) == pytest.approx(0.0, abs=1e-18)

    def test_cosine_midpoint_by_symmetry(self):
        assert lr_at(550, 1000, 0.008) == pytest.approx(0.004)

    def test_starts_at_zero_with_warmup(self):
        assert lr_at(0, 1000, 0.008) == 0.0

    def test_no_warmup_starts_at_peak(self):
        # 10% of at most 5 steps rounds to no warmup
        for steps in range(1, 6):
            assert round(WARMUP_FRACTION * steps) == 0
            assert lr_at(0, steps, 0.1) == 0.1
            assert lr_at(steps, steps, 0.1) == pytest.approx(0.0, abs=1e-18)

    def test_warmup_is_shorter_than_the_run(self):
        # so the cosine always has a step to span
        assert all(round(WARMUP_FRACTION * steps) < steps for steps in range(1, 100_001))

    def test_monotone_up_then_down(self):
        values = [lr_at(k, 1000, 0.008) for k in range(1001)]
        warmup = round(WARMUP_FRACTION * 1000)
        assert all(a <= b + 1e-18 for a, b in zip(values[:warmup], values[1 : warmup + 1]))
        assert all(a >= b - 1e-18 for a, b in zip(values[warmup:-1], values[warmup + 1 :]))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lr_at(-1, 1000, 0.008)
        with pytest.raises(ValueError):
            lr_at(1001, 1000, 0.008)
        with pytest.raises(ValueError):
            lr_at([0, 1001], 1000, 0.008)

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.integers(1, 5000),
        peaks=st.lists(
            st.sampled_from((0.0, 5e-324, 2.0**-16, 1e308)) | st.floats(0.0, 1e308),
            min_size=1,
            max_size=4,
        ),
    )
    def test_table_equals_one_call_per_step(self, steps, peaks):
        # under the engine's errstate: a peak near 1e308 times a step or 1 + cos overflows to inf
        with np.errstate(over="ignore", invalid="ignore"):
            table = lr_at(range(steps + 1), steps, np.array(peaks))
            rows = [lr_at(k, steps, np.array(peaks)) for k in range(steps + 1)]
            scalar = lr_at(range(steps + 1), steps, peaks[0])
        assert table.shape == (steps + 1, len(peaks)) and scalar.shape == (steps + 1,)
        assert _bits(table) == _bits(rows)
        # a Python float peak: Python's float arithmetic, which overflows to inf without a warning
        assert _bits(scalar) == _bits([lr_at(k, steps, peaks[0]) for k in range(steps + 1)])

    def test_table_takes_its_cosines_from_math_cos(self, monkeypatch):
        # numpy's cos rounds like math.cos on most inputs, so the table above can pass with either;
        # with a math.cos off by 2**-20 a table of numpy cosines differs from every decay row
        cos = math.cos
        monkeypatch.setattr(math, "cos", lambda angle: cos(angle) + 2.0**-20)
        steps, peaks = 1000, np.array([0.008, 1.0])
        table = lr_at(range(steps + 1), steps, peaks)
        assert _bits(table) == _bits([lr_at(k, steps, peaks) for k in range(steps + 1)])
        assert lr_at(steps, steps, 1.0) == 2.0**-21


class TestBetaGrid:
    def test_kappa_one_is_identity(self):
        assert beta_grid(0.9, [1.0]) == [0.9]

    def test_fractional_kappas(self):
        np.testing.assert_allclose(beta_grid(0.9, [0.5, 0.25]), [0.95, 0.975], rtol=1e-15)

    def test_kappa_two(self):
        np.testing.assert_allclose(beta_grid(0.9, [2.0]), [0.8], rtol=1e-15)

    def test_full_powers_of_two_grid(self):
        kappas = [2.0**i for i in range(-5, 3)]
        grid = beta_grid(0.9, kappas)
        expected = [0.996875, 0.99375, 0.9875, 0.975, 0.95, 0.9, 0.8, 0.6]
        np.testing.assert_allclose(grid, expected, rtol=1e-12)

    def test_out_of_range_beta_rejected(self):
        with pytest.raises(ValueError):
            beta_grid(0.9, [11.0])  # 1 - 1.1 < 0
        with pytest.raises(ValueError):
            beta_grid(0.9, [0.0])
