"""Filter lab: signal generation, response identities, operator properties."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from adamlab.filters import (
    ADAMEQ_PEAK_RANGE,
    FILTERS,
    SCALING_FACTORS,
    SIGNAL_LENGTH,
    TRUNCATIONS_PER_TRIAL,
    WITNESS_TOL,
    SignalSpec,
    check_properties,
    decay_blindness,
    density_witness,
    filter_config,
    filter_response,
    gen_signal,
    run_property_checks,
)
from adamlab.identities import scalar_adam_trace
from adamlab.optim import EpsilonPlacement
from adamlab.vi import GaussianBelief, vi_update

REFERENCE_SIGNAL = SignalSpec(amplitude=1.8, frequency=0.03, decay=0.0025, length=2000)


def reference_property_checks(response, trials, rng) -> dict:
    """The per-trial property loop the column-batched checks replaced, its algorithm kept verbatim."""
    if trials < 1:
        raise ValueError("trials must be at least 1")
    worst = {"causal": 0.0, "scaling": 0.0, "odd": 0.0, "bounded": 0.0}
    for _ in range(trials):
        g = rng.standard_normal(SIGNAL_LENGTH)
        base = response(g)
        for k in rng.integers(1, SIGNAL_LENGTH, size=TRUNCATIONS_PER_TRIAL):
            head = response(g[: k + 1])
            worst["causal"] = max(worst["causal"], float(np.max(np.abs(head - base[: k + 1]))))
        for alpha in SCALING_FACTORS:
            scaled = response(alpha * g)
            worst["scaling"] = max(worst["scaling"], float(np.max(np.abs(scaled - base))))
        worst["odd"] = max(worst["odd"], float(np.max(np.abs(response(-g) + base))))
        worst["bounded"] = max(worst["bounded"], float(np.max(np.abs(base)) - 1.0))
    return worst


class TestGenSignal:
    def test_starts_at_zero(self):
        g = gen_signal(SignalSpec(amplitude=1.8, frequency=0.03, decay=0.0025, length=3))
        assert g[0] == 0.0
        assert g.shape == (3,)

    def test_no_decay_is_periodic(self):
        # frequency pi/8 has an exact period of 16 steps
        spec = SignalSpec(amplitude=1.0, frequency=np.pi / 8, decay=0.0, length=64)
        g = gen_signal(spec)
        np.testing.assert_allclose(g[16:32], g[0:16], atol=1e-12)

    def test_zero_amplitude(self):
        g = gen_signal(SignalSpec(amplitude=0.0, frequency=0.03, decay=0.0, length=10))
        np.testing.assert_array_equal(g, np.zeros(10))

    def test_validation(self):
        with pytest.raises(ValueError):
            SignalSpec(length=0)
        with pytest.raises(ValueError):
            SignalSpec(decay=-1.0)


class TestFilterResponse:
    def test_sign_filter_is_elementwise_sign(self):
        rng = np.random.default_rng(50)
        g = rng.standard_normal(100)
        response = filter_response(filter_config("sign"), g)
        np.testing.assert_array_equal(response, np.sign(g))

    def test_beta_zero_adaptive_filter_is_sign(self):
        rng = np.random.default_rng(51)
        g = rng.standard_normal(100)
        response = filter_response(filter_config("adameq", 0.0), g)
        np.testing.assert_array_equal(response, np.sign(g))

    def test_constant_signal_zero_init_transient(self):
        beta = 0.95
        response = filter_response(filter_config("adameq", beta), np.full(50, 3.0))
        expected = np.sqrt(1.0 - beta ** np.arange(1, 51))
        np.testing.assert_allclose(response, expected, rtol=1e-12)

    def test_matches_scalar_identity_trace(self):
        # dual route: the streamed optimizer equals the standalone scalar recursion
        rng = np.random.default_rng(52)
        g = rng.standard_normal(128)
        response = filter_response(filter_config("adameq", 0.9), g)
        trace = scalar_adam_trace(g, 0.9)
        np.testing.assert_allclose(response, trace["d_variance"], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(response, trace["d_standard"], atol=1e-12)

    def test_non_finite_signal_rejected(self):
        with pytest.raises(ValueError):
            filter_response(filter_config("sign"), [1.0, np.nan])


def _column_signals():
    """``(T, C)`` Gaussian signals, each column scaled by its own power of two or zeroed."""
    # a zeroed column hits the 0/0 -> 0 convention
    scales = st.lists(st.just(0.0) | st.integers(-30, 30).map(lambda e: 2.0**e), min_size=1, max_size=6)
    return st.builds(
        lambda length, scales, seed: np.random.default_rng(seed).standard_normal((length, len(scales))) * scales,
        st.integers(1, 64),
        scales,
        st.integers(0, 2**16),
    )


def _scale_test_signals(zeros: bool):
    elements = st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)
    return arrays(
        float,
        st.tuples(st.integers(1, 64), st.integers(1, 6)),
        elements=st.just(0.0) | elements if zeros else elements,
    )


class TestColumnEngine:
    """``filter_response`` on ``(T, C)`` is the reference stepper run on each column."""

    @given(
        name=st.sampled_from(list(FILTERS)),
        beta=st.floats(0.0, 0.999, exclude_max=True),
        signal=_column_signals(),
    )
    def test_columns_match_scalar_reference_bitwise(self, name, beta, signal):
        config = filter_config(name, beta)
        out = filter_response(config, signal)
        assert out.shape == signal.shape
        # the raw moments bound every filter's response by 1
        assert np.max(np.abs(out)) <= 1.0 + 1e-12
        for c in range(signal.shape[1]):
            assert np.array_equal(out[:, c], reference.directions(config, signal[:, c]))

    @given(
        name=st.sampled_from(["signum", "adameq"]),
        beta=st.floats(0.0, 0.999, exclude_max=True),
        epsilon=st.sampled_from([1e-8, 1.0]) | st.floats(1e-12, 1.0),
        placement=st.sampled_from(list(EpsilonPlacement)),
        signal=_column_signals(),
    )
    def test_any_epsilon_matches_scalar_reference_bitwise(self, name, beta, epsilon, placement, signal):
        # a config beyond the named filters: epsilon > 0, inside or outside the square root
        config = replace(filter_config(name, beta), epsilon=epsilon, epsilon_placement=placement)
        out = filter_response(config, signal)
        for c in range(signal.shape[1]):
            expected = reference.directions(config, signal[:, c]).tobytes()
            assert out[:, c].tobytes() == expected
            assert filter_response(config, signal[:, c]).tobytes() == expected

    @given(
        name=st.sampled_from(list(FILTERS)),
        beta=st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.999]),
        # nonzero entries lie in [2**-10, 2**10], so 2**k with |k| <= 490 spans every peak
        # ADAMEQ_PEAK_RANGE accepts; a run of zeros decays the moments geometrically, which
        # reaches the subnormal range near its lower end, so zeros get only moderate scales
        signal_and_k=st.tuples(_scale_test_signals(zeros=True), st.integers(-8, 8))
        | st.tuples(_scale_test_signals(zeros=False), st.integers(-490, 490)),
    )
    def test_exactly_odd_and_power_of_two_scale_invariant(self, name, beta, signal_and_k):
        # negation and power-of-two scaling are exact in every step of every map
        signal, k = signal_and_k
        config = filter_config(name, beta)
        base = filter_response(config, signal)
        assert np.array_equal(filter_response(config, -signal), -base)
        assert np.array_equal(filter_response(config, 2.0**k * signal), base)

    @given(
        name=st.sampled_from(list(FILTERS)),
        beta=st.floats(0.0, 1.0, exclude_max=True),
        # signed zeros, subnormals and the ends of ADAMEQ_PEAK_RANGE next to ordinary values
        entries=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.0**-500, -(2.0**500)]) | st.floats(-1e3, 1e3),
            min_size=1,
            max_size=64,
        ),
        leading_negative_zero=st.booleans(),
    )
    def test_one_dim_matches_scalar_reference_bitwise(self, name, beta, entries, leading_negative_zero):
        # the Python-float scan of a (T,) signal, against the reference stepped on one sample at a time
        signal = np.array(([-0.0] if leading_negative_zero else []) + entries)[:64]
        config = filter_config(name, beta)
        peak = np.max(np.abs(signal))
        if name == "adameq" and peak and not ADAMEQ_PEAK_RANGE[0] <= peak <= ADAMEQ_PEAK_RANGE[1]:
            with pytest.raises(ValueError, match="outside"):
                filter_response(config, signal)
            return
        out = filter_response(config, signal)
        assert out.shape == signal.shape
        assert out.tobytes() == reference.directions(config, signal).tobytes()

    def test_one_dim_and_scalar_inputs_are_flattened(self):
        config = filter_config("adameq", 0.9)
        g = np.random.default_rng(56).standard_normal(40)
        assert filter_response(config, g).shape == (40,)
        assert filter_response(config, 2.5).shape == (1,)
        assert filter_response(config, g[:, None]).shape == (40, 1)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (1, 1, 1, 1)])
    def test_more_than_two_dims_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            filter_response(filter_config("sign"), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_rejected(self, bad):
        signal = np.ones((5, 3))
        signal[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            filter_response(filter_config("adameq"), signal)

    @pytest.mark.parametrize("scale", [2.0**-500, 2.0**500])
    def test_adameq_accepts_peaks_at_the_range_ends(self, scale):
        config = filter_config("adameq")
        signal = np.array([0.5, -1.0, 0.25])
        assert np.array_equal(filter_response(config, scale * signal), filter_response(config, signal))
        assert not filter_response(config, 0.0 * signal).any()

    @pytest.mark.parametrize("peak", [np.nextafter(2.0**-500, 0.0), np.nextafter(2.0**500, np.inf), 1e-200, 1e200])
    def test_adameq_rejects_peaks_out_of_range(self, peak):
        signal = np.array([[0.5, 0.0], [-1.0, 0.25]]) * peak
        with pytest.raises(ValueError, match="outside"):
            filter_response(filter_config("adameq"), signal)
        for name in ("sign", "signum", "emasign"):
            assert np.all(np.isfinite(filter_response(filter_config(name), signal)))


class TestProperties:
    @pytest.mark.parametrize("name", list(FILTERS))
    def test_all_four_properties_pass(self, name):
        rng = np.random.default_rng(53)
        worst = check_properties(filter_config(name, 0.95), trials=25, rng=rng)
        assert all(value <= 1e-12 for value in worst.values()), worst

    def test_broken_filter_fails_odd_check(self):
        # negative control: a constant offset destroys odd symmetry
        rng = np.random.default_rng(54)
        base = filter_config("adameq", 0.9)
        worst = run_property_checks(lambda g: filter_response(base, g) + 0.1, trials=5, rng=rng)
        assert not worst["odd"] <= 1e-12

    def test_future_reading_response_fails_causal_check(self):
        # negative control: run the filter backwards in time
        rng = np.random.default_rng(57)
        base = filter_config("adameq", 0.9)
        worst = run_property_checks(lambda s: filter_response(base, s[::-1])[::-1], trials=5, rng=rng)
        assert not worst["causal"] <= 1e-12
        assert worst["scaling"] <= 1e-12 and worst["odd"] <= 1e-12

    def test_scale_dependent_response_fails_scaling_check(self):
        # negative control: tanh is causal, odd and bounded but not scale-invariant
        rng = np.random.default_rng(58)
        worst = run_property_checks(np.tanh, trials=5, rng=rng)
        assert not worst["scaling"] <= 1e-12
        assert worst["causal"] <= 1e-12
        assert worst["odd"] <= 1e-12 and worst["bounded"] <= 1e-12

    def test_nan_response_fails_every_check(self):
        # negative control: flooring a violation with max(0.0, nan) used to read 0.0
        worst = run_property_checks(lambda s: np.full(np.shape(s), np.nan), trials=3, rng=np.random.default_rng(59))
        assert list(worst) == ["causal", "scaling", "odd", "bounded"]
        assert all(math.isnan(value) for value in worst.values())

    def test_nan_in_one_scaled_copy_fails_scaling_check(self):
        # negative control: sign is NaN only where |s| > 9, i.e. only in the 10x copies
        # (a standard-normal draw of this size stays below 4.5); a maximum over the
        # copies that skipped a NaN after a finite value let this pass
        worst = run_property_checks(
            lambda s: np.where(np.abs(s) > 9.0, np.nan, np.sign(s)), trials=3, rng=np.random.default_rng(60)
        )
        assert math.isnan(worst["scaling"])
        assert all(worst[name] <= 1e-12 for name in ("causal", "odd", "bounded"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_and_stream_match_per_trial_reference(self, seed):
        # one generator shared across filters, as the verify suite and `signal` share it
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for name in FILTERS:
            config = filter_config(name, 0.95)
            worst = check_properties(config, trials=4, rng=rng)
            expected = reference_property_checks(lambda s: reference.directions(config, s), 4, ref_rng)
            assert list(worst.items()) == list(expected.items())
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonzero_violations_match_per_trial_reference(self, seed):
        # an elementwise response whose scaling, odd and bounded maxima are all nonzero
        def response(s):
            return 1.5 * np.tanh(s) + 0.1

        worst = run_property_checks(response, 6, np.random.default_rng(seed))
        expected = reference_property_checks(response, 6, np.random.default_rng(seed))
        assert list(worst.items()) == list(expected.items())
        assert all(worst[name] > 0 for name in ("scaling", "odd", "bounded"))


class TestDecayBlindness:
    def test_reference_signal_gap_within_tolerance(self):
        gap, _ = decay_blindness(0.95, REFERENCE_SIGNAL)
        assert gap <= 0.05

    def test_undamped_signal_has_zero_gap(self):
        spec = SignalSpec(amplitude=1.8, frequency=0.03, decay=0.0, length=500)
        gap, _ = decay_blindness(0.95, spec)
        assert gap == 0.0

    @pytest.mark.parametrize("frequency", [1e-308, 5e-324])
    def test_burn_in_is_capped_where_the_period_overflows(self, frequency):
        # the amplitude lifts the signal's peak of about frequency*length into ADAMEQ_PEAK_RANGE
        gap, burn_in = decay_blindness(0.95, SignalSpec(amplitude=1e300, frequency=frequency, length=50))
        assert burn_in == 49
        # a real comparison of the last sample, not two all-zero responses
        assert 0.0 < gap <= 0.05

    @pytest.mark.parametrize("amplitude", [1e200, 1e-200])
    def test_signal_whose_squares_leave_the_range_is_rejected(self, amplitude):
        # such a signal used to give all-zero responses and a gap of exactly 0
        with pytest.raises(ValueError, match="outside"):
            decay_blindness(0.95, SignalSpec(amplitude=amplitude, length=200))

    def test_global_rescale_makes_no_difference(self):
        config = filter_config("adameq", 0.95)
        damped = gen_signal(REFERENCE_SIGNAL)
        base = filter_response(config, damped)
        rescaled = filter_response(config, 7.0 * damped)
        np.testing.assert_allclose(rescaled, base, atol=1e-12)


class TestDensityWitness:
    def test_target_one_constant_signal(self):
        _, achieved = density_witness(1.0, k=5, beta=0.9)
        assert achieved == pytest.approx(1.0, abs=1e-6)

    def test_target_zero(self):
        _, achieved = density_witness(0.0, k=5, beta=0.9)
        assert achieved == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("target", [0.37, -0.8, 0.999, -0.05])
    def test_interior_targets(self, target):
        _, achieved = density_witness(target, k=10, beta=0.9)
        assert achieved == pytest.approx(target, abs=1e-6)

    @settings(deadline=None)
    @given(
        target=st.floats(-1.0, 1.0),
        k=st.integers(1, 30),
        beta=st.floats(0.0, 0.999, exclude_max=True),
    )
    def test_signal_gives_achieved_from_its_first_sample(self, target, k, beta):
        """The witness signal, streamed on from its first sample, responds ``achieved`` at step ``k``.

        Two independent steppers start from the first sample: the reference
        stepper with ``m`` set to it (raw moments, bit for bit), and
        ``vi_update`` from the belief ``(first, 0)`` (to 1e-12).
        """
        signal, achieved = density_witness(target, k, beta)
        first, *rest = signal.tolist()
        assert len(rest) == k
        config = filter_config("adameq", beta)
        stepper = reference.Stepper(config, corrected=False)
        stepper.m = first
        belief = GaussianBelief(first, 0.0)
        for g in rest:
            stepper.update(g)
            belief = vi_update(belief, g, beta / (1.0 - beta))
        assert float(stepper.direction(g)).hex() == achieved.hex()
        root = math.sqrt(belief.mean * belief.mean + belief.variance)
        assert abs((belief.mean / root if root else 0.0) - achieved) <= 1e-12

    def test_sign_only_filter_reports_miss_honestly(self):
        # beta=0 keeps only {-1, 0, 1}; a miss is an expected outcome
        _, achieved = density_witness(0.37, k=3, beta=0.0)
        assert abs(achieved - 0.37) > WITNESS_TOL

    def test_target_validated(self):
        with pytest.raises(ValueError):
            density_witness(1.5, k=3, beta=0.9)
        with pytest.raises(ValueError):
            density_witness(0.5, k=0, beta=0.9)
