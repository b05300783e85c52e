"""Filter lab: signal generation, response identities, operator properties."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import reference
from adamlab.core import InitMode
from adamlab.filters import (
    ADAMEQ_PEAK_RANGE,
    SCALING_FACTORS,
    SIGNAL_LENGTH,
    TRUNCATIONS_PER_TRIAL,
    WITNESS_TOL,
    FilterKind,
    FilterSpec,
    PropertyCheck,
    PropertyReport,
    SignalSpec,
    check_properties,
    decay_blindness,
    density_witness,
    filter_response,
    gen_signal,
    run_property_checks,
)
from adamlab.identities import scalar_adam_trace

REFERENCE_SIGNAL = SignalSpec(amplitude=1.8, frequency=0.03, decay=0.0025, length=2000)


def reference_property_checks(response, trials, tol, rng, label="filter") -> PropertyReport:
    """The per-trial property loop the column-batched checks replaced, kept verbatim."""
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
    checks = tuple(
        PropertyCheck(name, value, tol, value <= tol) for name, value in worst.items()
    )
    return PropertyReport(label=label, trials=trials, checks=checks)


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
        response = filter_response(FilterSpec(FilterKind.SIGN), g)
        np.testing.assert_array_equal(response, np.sign(g))

    def test_beta_zero_adaptive_filter_is_sign(self):
        rng = np.random.default_rng(51)
        g = rng.standard_normal(100)
        response = filter_response(FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=0.0), g)
        np.testing.assert_array_equal(response, np.sign(g))

    def test_constant_signal_zero_init_transient(self):
        beta = 0.95
        response = filter_response(
            FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=beta), np.full(50, 3.0)
        )
        expected = np.sqrt(1.0 - beta ** np.arange(1, 51))
        np.testing.assert_allclose(response, expected, rtol=1e-12)

    def test_constant_signal_first_sample_is_one(self):
        response = filter_response(
            FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=0.9, init_mode=InitMode.FIRST_SAMPLE),
            np.full(30, -2.0),
        )
        np.testing.assert_allclose(response, -1.0, rtol=1e-15)

    def test_matches_scalar_identity_trace(self):
        # dual route: the streamed optimizer equals the standalone scalar recursion
        rng = np.random.default_rng(52)
        g = rng.standard_normal(128)
        response = filter_response(FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=0.9), g)
        trace = scalar_adam_trace(g, 0.9)
        np.testing.assert_allclose(response, trace["d_variance"], rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(response, trace["d_standard"], atol=1e-12)

    def test_non_finite_signal_rejected(self):
        with pytest.raises(ValueError):
            filter_response(FilterSpec(FilterKind.SIGN), [1.0, np.nan])


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
        kind=st.sampled_from(list(FilterKind)),
        init_mode=st.sampled_from(list(InitMode)),
        beta=st.floats(0.0, 0.999, exclude_max=True),
        length=st.integers(1, 64),
        exponents=st.lists(st.none() | st.integers(-30, 30), min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def test_columns_match_scalar_reference_bitwise(self, kind, init_mode, beta, length, exponents, seed):
        # a None exponent is an all-zero column, which hits the 0/0 -> 0 convention
        scales = np.array([0.0 if e is None else 2.0**e for e in exponents])
        signal = np.random.default_rng(seed).standard_normal((length, len(scales))) * scales
        filt = FilterSpec(kind, beta=beta, init_mode=init_mode)
        out = filter_response(filt, signal)
        assert out.shape == signal.shape
        for c in range(signal.shape[1]):
            assert np.array_equal(out[:, c], reference.directions(filt.optimizer_config(), signal[:, c]))

    @given(
        kind=st.sampled_from(list(FilterKind)),
        init_mode=st.sampled_from(list(InitMode)),
        beta=st.sampled_from([0.0, 0.5, 0.9, 0.95, 0.999]),
        # nonzero entries lie in [2**-10, 2**10], so 2**k with |k| <= 490 spans every peak
        # ADAMEQ_PEAK_RANGE accepts; a run of zeros decays the moments geometrically, which
        # reaches the subnormal range near its lower end, so zeros get only moderate scales
        signal_and_k=st.tuples(_scale_test_signals(zeros=True), st.integers(-8, 8))
        | st.tuples(_scale_test_signals(zeros=False), st.integers(-490, 490)),
    )
    def test_exactly_odd_and_power_of_two_scale_invariant(self, kind, init_mode, beta, signal_and_k):
        # negation and power-of-two scaling are exact in every step of every map
        signal, k = signal_and_k
        filt = FilterSpec(kind, beta=beta, init_mode=init_mode)
        base = filter_response(filt, signal)
        assert np.array_equal(filter_response(filt, -signal), -base)
        assert np.array_equal(filter_response(filt, 2.0**k * signal), base)

    @given(
        kind=st.sampled_from(list(FilterKind)),
        init_mode=st.sampled_from(list(InitMode)),
        beta=st.floats(0.0, 1.0, exclude_max=True),
        # signed zeros, subnormals and the ends of ADAMEQ_PEAK_RANGE next to ordinary values
        entries=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 2.0**-500, -(2.0**500)]) | st.floats(-1e3, 1e3),
            min_size=1,
            max_size=64,
        ),
        leading_negative_zero=st.booleans(),
    )
    def test_one_dim_matches_scalar_reference_bitwise(self, kind, init_mode, beta, entries, leading_negative_zero):
        # the Python-float scan of a (T,) signal, against the reference stepped on one sample at a time
        signal = np.array(([-0.0] if leading_negative_zero else []) + entries)[:64]
        filt = FilterSpec(kind, beta=beta, init_mode=init_mode)
        peak = np.max(np.abs(signal))
        if kind is FilterKind.ADAM_EQUAL_BETA and peak and not ADAMEQ_PEAK_RANGE[0] <= peak <= ADAMEQ_PEAK_RANGE[1]:
            with pytest.raises(ValueError, match="outside"):
                filter_response(filt, signal)
            return
        out = filter_response(filt, signal)
        assert out.shape == signal.shape
        assert out.tobytes() == reference.directions(filt.optimizer_config(), signal).tobytes()

    def test_one_dim_and_scalar_inputs_are_flattened(self):
        filt = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=0.9)
        g = np.random.default_rng(56).standard_normal(40)
        assert filter_response(filt, g).shape == (40,)
        assert filter_response(filt, 2.5).shape == (1,)
        assert filter_response(filt, g[:, None]).shape == (40, 1)

    @pytest.mark.parametrize("kind", [FilterKind.ADAM_EQUAL_BETA, FilterKind.SIGNUM, FilterKind.EMA_SIGN])
    def test_first_sample_response_leaves_signal_unmutated(self, kind):
        # first-sample seeding makes the moment the caller's first row itself
        filt = FilterSpec(kind, beta=0.9, init_mode=InitMode.FIRST_SAMPLE)
        rng = np.random.default_rng(57)
        for signal in (rng.standard_normal(30), rng.standard_normal((30, 3))):
            before = signal.copy()
            filter_response(filt, signal)
            assert np.array_equal(signal, before)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (1, 1, 1, 1)])
    def test_more_than_two_dims_rejected(self, shape):
        with pytest.raises(ValueError, match="2-D"):
            filter_response(FilterSpec(FilterKind.SIGN), np.ones(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_column_rejected(self, bad):
        signal = np.ones((5, 3))
        signal[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            filter_response(FilterSpec(FilterKind.ADAM_EQUAL_BETA), signal)

    @pytest.mark.parametrize("scale", [2.0**-500, 2.0**500])
    def test_adameq_accepts_peaks_at_the_range_ends(self, scale):
        filt = FilterSpec(FilterKind.ADAM_EQUAL_BETA)
        signal = np.array([0.5, -1.0, 0.25])
        assert np.array_equal(filter_response(filt, scale * signal), filter_response(filt, signal))
        assert not filter_response(filt, 0.0 * signal).any()

    @pytest.mark.parametrize("peak", [np.nextafter(2.0**-500, 0.0), np.nextafter(2.0**500, np.inf), 1e-200, 1e200])
    def test_adameq_rejects_peaks_out_of_range(self, peak):
        signal = np.array([[0.5, 0.0], [-1.0, 0.25]]) * peak
        with pytest.raises(ValueError, match="outside"):
            filter_response(FilterSpec(FilterKind.ADAM_EQUAL_BETA), signal)
        for kind in (FilterKind.SIGN, FilterKind.SIGNUM, FilterKind.EMA_SIGN):
            assert np.all(np.isfinite(filter_response(FilterSpec(kind), signal)))


def by_name(report) -> dict:
    """A property report's checks keyed by their names."""
    return {check.name: check for check in report.checks}


class TestProperties:
    @pytest.mark.parametrize("kind", list(FilterKind))
    def test_all_four_properties_pass(self, kind):
        rng = np.random.default_rng(53)
        report = check_properties(FilterSpec(kind, beta=0.95), trials=25, tol=1e-12, rng=rng)
        assert report.passed, report.to_dict()

    def test_broken_filter_fails_odd_check(self):
        # negative control: a constant offset destroys odd symmetry
        rng = np.random.default_rng(54)
        base = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=0.9)
        report = run_property_checks(
            lambda g: filter_response(base, g) + 0.1,
            trials=5,
            tol=1e-12,
            rng=rng,
            label="broken",
        )
        assert not by_name(report)["odd"].passed
        assert not report.passed

    def test_future_reading_response_fails_causal_check(self):
        # negative control: run the filter backwards in time
        rng = np.random.default_rng(57)
        base = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=0.9)
        report = run_property_checks(
            lambda s: filter_response(base, s[::-1])[::-1], trials=5, tol=1e-12, rng=rng
        )
        checks = by_name(report)
        assert not checks["causal"].passed
        assert checks["scaling"].passed and checks["odd"].passed

    def test_scale_dependent_response_fails_scaling_check(self):
        # negative control: tanh is causal, odd and bounded but not scale-invariant
        rng = np.random.default_rng(58)
        report = run_property_checks(np.tanh, trials=5, tol=1e-12, rng=rng)
        checks = by_name(report)
        assert not checks["scaling"].passed
        assert checks["causal"].passed
        assert checks["odd"].passed and checks["bounded"].passed

    def test_nan_response_fails_every_check(self):
        # negative control: flooring a violation with max(0.0, nan) used to read 0.0
        report = run_property_checks(
            lambda s: np.full(np.shape(s), np.nan), trials=3, tol=1e-12, rng=np.random.default_rng(59)
        )
        for check in report.checks:
            assert math.isnan(check.max_violation) and not check.passed
        assert not report.passed

    def test_nan_in_one_scaled_copy_fails_scaling_check(self):
        # negative control: sign is NaN only where |s| > 9, i.e. only in the 10x copies
        # (a standard-normal draw of this size stays below 4.5); a maximum over the
        # copies that skipped a NaN after a finite value let this pass
        report = run_property_checks(
            lambda s: np.where(np.abs(s) > 9.0, np.nan, np.sign(s)), trials=3, tol=1e-12, rng=np.random.default_rng(60)
        )
        checks = by_name(report)
        assert math.isnan(checks["scaling"].max_violation)
        assert not checks["scaling"].passed
        assert all(checks[name].passed for name in ("causal", "odd", "bounded"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_report_and_stream_match_per_trial_reference(self, seed):
        # one generator shared across filters, as the verify suite and `signal` share it
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for kind in FilterKind:
            filt = FilterSpec(kind, beta=0.95)
            report = check_properties(filt, trials=4, tol=1e-12, rng=rng)
            expected = reference_property_checks(
                lambda s: reference.directions(filt.optimizer_config(), s), 4, 1e-12, ref_rng, label=kind.value
            )
            assert report == expected
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    def test_nonzero_violations_match_per_trial_reference(self, seed):
        # an elementwise response whose scaling, odd and bounded maxima are all nonzero
        def response(s):
            return 1.5 * np.tanh(s) + 0.1

        report = run_property_checks(response, 6, 1e-12, np.random.default_rng(seed))
        expected = reference_property_checks(response, 6, 1e-12, np.random.default_rng(seed))
        assert report == expected
        checks = by_name(report)
        assert all(checks[name].max_violation > 0 for name in ("scaling", "odd", "bounded"))

    def test_report_shape(self):
        rng = np.random.default_rng(55)
        report = check_properties(FilterSpec(FilterKind.SIGN), trials=3, rng=rng)
        assert {c.name for c in report.checks} == {"causal", "scaling", "odd", "bounded"}
        assert report.trials == 3
        payload = report.to_dict()
        assert payload["label"] == "sign"
        assert len(payload["checks"]) == 4


class TestDecayBlindness:
    def test_reference_signal_gap_within_tolerance(self):
        report = decay_blindness(0.95, REFERENCE_SIGNAL)
        assert report.max_gap <= 0.05
        assert report.passed

    def test_undamped_signal_has_zero_gap(self):
        spec = SignalSpec(amplitude=1.8, frequency=0.03, decay=0.0, length=500)
        report = decay_blindness(0.95, spec)
        assert report.max_gap == 0.0

    @pytest.mark.parametrize("frequency", [1e-308, 5e-324])
    def test_burn_in_is_capped_where_the_period_overflows(self, frequency):
        # the amplitude lifts the signal's peak of about frequency*length into ADAMEQ_PEAK_RANGE
        report = decay_blindness(0.95, SignalSpec(amplitude=1e300, frequency=frequency, length=50))
        assert report.burn_in == 49
        # a real comparison of the last sample, not two all-zero responses
        assert 0.0 < report.max_gap and report.passed

    @pytest.mark.parametrize("amplitude", [1e200, 1e-200])
    def test_signal_whose_squares_leave_the_range_is_rejected(self, amplitude):
        # such a signal used to give all-zero responses and a gap of exactly 0
        with pytest.raises(ValueError, match="outside"):
            decay_blindness(0.95, SignalSpec(amplitude=amplitude, length=200))

    def test_global_rescale_makes_no_difference(self):
        filt = FilterSpec(FilterKind.ADAM_EQUAL_BETA, beta=0.95)
        damped = gen_signal(REFERENCE_SIGNAL)
        base = filter_response(filt, damped)
        rescaled = filter_response(filt, 7.0 * damped)
        np.testing.assert_allclose(rescaled, base, atol=1e-12)


class TestDensityWitness:
    def test_target_one_constant_signal(self):
        witness = density_witness(1.0, k=5, beta=0.9)
        assert witness.found
        assert witness.achieved == pytest.approx(1.0, abs=1e-6)

    def test_target_zero(self):
        witness = density_witness(0.0, k=5, beta=0.9)
        assert witness.found
        assert witness.achieved == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("target", [0.37, -0.8, 0.999, -0.05])
    def test_interior_targets(self, target):
        witness = density_witness(target, k=10, beta=0.9)
        assert witness.found
        assert witness.achieved == pytest.approx(target, abs=1e-6)
        # the witness signal really produces the claimed response
        filt = FilterSpec(
            FilterKind.ADAM_EQUAL_BETA, beta=0.9, init_mode=InitMode.FIRST_SAMPLE
        )
        response = filter_response(filt, witness.signal)
        assert response[10] == pytest.approx(witness.achieved, abs=1e-12)

    def test_reports_the_tolerance_it_decided_with(self):
        witness = density_witness(0.37, k=10, beta=0.9)
        assert witness.tolerance == WITNESS_TOL == 1e-6
        assert witness.found and abs(witness.achieved - 0.37) <= WITNESS_TOL

    def test_sign_only_filter_reports_miss_honestly(self):
        # beta=0 keeps only {-1, 0, 1}; a miss is an expected outcome
        witness = density_witness(0.37, k=3, beta=0.0)
        assert not witness.found

    def test_target_validated(self):
        with pytest.raises(ValueError):
            density_witness(1.5, k=3, beta=0.9)
        with pytest.raises(ValueError):
            density_witness(0.5, k=0, beta=0.9)
