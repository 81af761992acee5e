"""Error probabilities, dissipation floors, and the first-passage Monte Carlo.

Expected values were frozen from independent 40-digit evaluation, and the
normal-tail accuracy pins from 60-digit mpmath references that
tests/tail_references.py writes into this file.  The correlated
first-passage references come from tests/ar1_oracle.py (density recursion on
a Gauss-Legendre grid), itself pinned here against constants that were
cross-validated with a direct 2e6-trial simulation.
"""

import concurrent.futures
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ar1_oracle import exceedance_probability
from ktfloor import floors, noise
from ktfloor import (
    ErrorSpec,
    OuProcess,
    PhysicalEnvironment,
    RcStage,
    first_passage_mc,
    floor_long,
    floor_short,
    instantaneous_error_prob,
    log_tail_probability,
    multi_sample_error,
    observation_count,
    required_swing,
    stationary_path,
    tail_probability,
    tail_quantile,
)

ENV300 = PhysicalEnvironment(temperature=300.0)
SIGMA_1FF_300K = 2.0351773878460816e-3

# Upper-tail values of the unit normal, 40-digit references.
TAIL_AT_3 = 1.3498980316300945e-3
TAIL_AT_5 = 2.8665157187919391e-7
QUANTILE_AT_1E30 = 11.464024688443616

# (point, 60-digit reference to 25 digits) from tests/tail_references.py,
# which CI re-runs with --check; regenerate rather than edit by hand.
# BEGIN tail_references.py output
TAIL_REFERENCES = [
    (-37.5, '1.0'),
    (-8.0, '9.999999999999993779039426e-1'),
    (-3.0, '9.986501019683699042946827e-1'),
    (-1.0, '8.413447460685429271342473e-1'),
    (-0.25, '5.987063256829237156712096e-1'),
    (0.0, '5.0e-1'),
    (0.5, '3.085375387259869119677951e-1'),
    (1.0, '1.586552539314570728657527e-1'),
    (2.0, '2.275013194817921677300618e-2'),
    (3.0, '1.349898031630095705317313e-3'),
    (5.0, '2.866515718791945706707949e-7'),
    (8.0, '6.220960574271819954691084e-16'),
    (12.0, '1.776482112077701831224945e-33'),
    (20.0, '2.753624118606331582770162e-89'),
    (27.0, '7.389481006885621943389505e-161'),
    (35.0, '1.124910706472553253369472e-268'),
    (37.5, '4.60535300958258365077757e-308'),
    (38.0, '2.885428360069291753120299e-316'),
    (38.4, '6.601599854327780899732398e-323'),
]
LOG_TAIL_REFERENCES = [
    (-40.0, '-3.655893540915548586165362e-350'),
    (-20.0, '-2.753624118606331582770162e-89'),
    (-5.0, '-2.866516129637642523818278e-7'),
    (-1.0, '-1.72753779023449915022554e-1'),
    (-0.001, '-6.923496142726882434329449e-1'),
    (0.0, '-6.931471805599453094172321e-1'),
    (0.001, '-6.939453834669651787893835e-1'),
    (0.5, '-1.175911761593618608879729'),
    (1.0, '-1.841021645009263505770783'),
    (3.0, '-6.607726221510349543276077'),
    (6.0, '-2.073676894997470565496885e+1'),
    (10.0, '-5.323128515051247057834703e+1'),
    (20.0, '-2.039171553710972639368045e+2'),
    (30.0, '-4.543212439563431971073558e+2'),
    (35.0, '-6.169751012619225134732442e+2'),
    (35.78342139466302, '-6.447238260383327649230192e+2'),
    (35.78342139466303, '-6.447238260383330193777792e+2'),
    (36.0, '-6.525032275937983968543488e+2'),
    (38.0, '-7.265572160188201300965035e+2'),
    (38.45, '-7.437702224949255390901243e+2'),
    (38.6, '-7.495528608462078320954247e+2'),
    (40.0, '-8.046084420137537881666068e+2'),
    (100.0, '-5.005524208694205088626302e+3'),
    (1000.0, '-5.000078266948121843098062e+5'),
    (100000.0, '-5.000000012431863998274901e+9'),
    (10000000000.0, '-5.000000000000000002394479e+19'),
    (1e+50, '-5.000000000000000762976984e+99'),
    (1e+100, '-5.000000000000000159028911e+199'),
    (1e+150, '-4.999999999999999808355962e+299'),
]
QUANTILE_REFERENCES = [
    (5e-324, '3.846740561714434625078436e+1'),
    (1e-320, '3.826912534303265101818101e+1'),
    (2.2250738585072014e-308, '3.751937934714449982068239e+1'),
    (1e-300, '3.704709629936119923654704e+1'),
    (1e-200, '3.020559417957964306312401e+1'),
    (1e-100, '2.127345356096532429417952e+1'),
    (1e-50, '1.493333753478848898065821e+1'),
    (1e-30, '1.146402468844361571976697e+1'),
    (1e-18, '8.757290348782315055814266'),
    (1e-12, '7.034483825301131932614176'),
    (1e-09, '5.997807015007686861445655'),
    (1e-06, '4.753424308822898957338864'),
    (0.001, '3.090232306167813535358005'),
    (0.01, '2.326347874040841093075096'),
    (0.05, '1.644853626951472687952128'),
    (0.1, '1.281551565544600435334517'),
    (0.2, '8.416212335729141655224906e-1'),
    (0.3, '5.244005127080408159694544e-1'),
    (0.4, '2.533471031357997413246887e-1'),
    (0.45, '1.256613468550740061604284e-1'),
    (0.49, '2.506890825871105803269163e-2'),
    (0.4999, '2.506628300880074923888501e-4'),
    (0.5, '0.0'),
]
# END tail_references.py output

# ln(1/1e-30) and the long-floor example at (eps=1e-25, t_o=3.156e7 s, tau=1e-10 s).
FLOOR_KT_1E30 = 69.07755278982137
FLOOR_KT_LONG_EXAMPLE = 97.85787930873355

# AR(1) exceedance probabilities at lag-1 correlation 1/e (stationary start),
# from the density-recursion oracle, cross-validated by direct simulation.
AR1_EXCEEDANCE = {
    (2.0, 10): 0.187016571,
    (2.0, 100): 0.870105417,
    (2.5, 10): 0.057114147,
    (2.5, 100): 0.442178679,
    (3.0, 10): 0.013060572,
    (3.0, 100): 0.122807268,
}


# The first double whose tail is at or below log_tail_probability's seam.
LOG_TAIL_SEAM_X = 35.78342139466303


def make_stage(cap=1e-15, res=1e6, swing=0.0):
    return RcStage(capacitance=cap, resistance=res, swing_voltage=swing, env=ENV300)


def ulps_from(value, reference):
    """|value - reference| in ulps of the double nearest the reference."""
    exact = Decimal(reference)
    return abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact)))


class TestTailFunctions:
    def test_tail_at_zero_is_half(self):
        assert tail_probability(0.0) == 0.5

    def test_tail_reference_points(self):
        assert tail_probability(3.0) == pytest.approx(TAIL_AT_3, rel=1e-13)
        assert tail_probability(5.0) == pytest.approx(TAIL_AT_5, rel=1e-13)
        assert tail_probability(QUANTILE_AT_1E30) == pytest.approx(1e-30, rel=1e-12)

    def test_quantile_reference_point(self):
        assert tail_quantile(1e-30) == pytest.approx(QUANTILE_AT_1E30, rel=1e-13)

    def test_quantile_inverts_tail_across_range(self):
        for x in (0.5, 1.0, 3.0, 5.0, 8.0, 12.0):
            assert tail_quantile(float(tail_probability(x))) == pytest.approx(
                x, rel=1e-10
            )

    def test_quantile_domain(self):
        assert tail_quantile(0.5) == 0.0
        for bad in (0.0, -1e-3, 0.6, 1.0):
            with pytest.raises(ValueError):
                tail_quantile(bad)

    def test_zeros_are_positive(self):
        assert math.copysign(1.0, tail_quantile(0.5)) == 1.0
        assert math.copysign(1.0, log_tail_probability(-40.0)) == 1.0

    def test_array_argument_is_refused(self):
        with pytest.raises(TypeError):
            tail_probability(np.array([1.0, 2.0]))

    @pytest.mark.parametrize("x, reference", TAIL_REFERENCES)
    def test_tail_within_2_ulps(self, x, reference):
        assert ulps_from(tail_probability(x), reference) <= 2

    @pytest.mark.parametrize("x, reference", LOG_TAIL_REFERENCES)
    def test_log_tail_within_3_ulps(self, x, reference):
        assert ulps_from(log_tail_probability(x), reference) <= 3

    def test_log_tail_points_straddle_the_seam(self):
        below = math.nextafter(LOG_TAIL_SEAM_X, 0.0)
        assert tail_probability(below) > floors._LOG_TAIL_SEAM
        assert tail_probability(LOG_TAIL_SEAM_X) <= floors._LOG_TAIL_SEAM
        assert {below, LOG_TAIL_SEAM_X} <= {x for x, _ in LOG_TAIL_REFERENCES}

    @pytest.mark.parametrize("epsilon, reference", QUANTILE_REFERENCES)
    def test_quantile_within_5_ulps(self, epsilon, reference):
        assert ulps_from(tail_quantile(epsilon), reference) <= 5


# Derandomized, as in test_fuzz.py, so a run is reproducible.
TAIL_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)
seam_neighbourhood = st.floats(LOG_TAIL_SEAM_X - 1e-9, LOG_TAIL_SEAM_X + 1e-9)


class TestTailProperties:
    @TAIL_PROPERTY
    @given(st.floats(-40.0, 40.0), st.floats(0.0, 80.0))
    def test_tail_is_non_increasing(self, x, step):
        for y in (math.nextafter(x, math.inf), x + step):
            assert tail_probability(y) <= tail_probability(x)

    @TAIL_PROPERTY
    @given(
        st.one_of(st.floats(-40.0, 1e150), seam_neighbourhood),
        st.floats(0.0, 1e150),
    )
    def test_log_tail_is_non_increasing(self, x, step):
        for y in (math.nextafter(x, math.inf), x + step):
            assert log_tail_probability(y) <= log_tail_probability(x)

    # Only for x >= 0: below 0, log(tail_probability(x)) is the log of a
    # number near 1 and loses the small tail at -x, which the log tail keeps
    # (at x = -10 it gives 0.0 against -7.6e-24).
    @TAIL_PROPERTY
    @given(st.one_of(st.floats(0.0, LOG_TAIL_SEAM_X), seam_neighbourhood))
    def test_log_tail_is_the_log_of_the_tail_above_the_seam(self, x):
        tail = tail_probability(x)
        if tail > floors._LOG_TAIL_SEAM:
            assert ulps_from(log_tail_probability(x), math.log(tail)) <= 4

    @TAIL_PROPERTY
    @given(st.floats(0.1, 37.0))
    def test_quantile_inverts_the_tail(self, x):
        assert tail_quantile(tail_probability(x)) == pytest.approx(x, rel=1e-12)


class TestErrorSpec:
    def test_open_interval_enforced(self):
        for bad in (0.0, -1e-6, 0.5, 0.7, 1.0):
            with pytest.raises(ValueError):
                ErrorSpec(epsilon=bad)
        assert ErrorSpec(epsilon=0.499999).epsilon == 0.499999
        assert ErrorSpec(epsilon=1e-300).epsilon == 1e-300

    def test_time_fields_validated(self):
        with pytest.raises(ValueError):
            ErrorSpec(epsilon=0.1, observation_time=-1.0)
        with pytest.raises(ValueError):
            ErrorSpec(epsilon=0.1, correlation_time=0.0)

    def test_infinite_observation_time_is_refused_by_name(self):
        message = "^observation_time must be finite, got inf$"
        with pytest.raises(ValueError, match=message):
            ErrorSpec(epsilon=0.1, observation_time=math.inf, correlation_time=1e-9)


class TestFloorShort:
    def test_seventy_kt_scale_example(self):
        result = floor_short(ErrorSpec(epsilon=1e-30), ENV300)
        assert result.floor_kt == pytest.approx(FLOOR_KT_1E30, rel=1e-12)
        assert result.regime == "short"

    def test_joule_and_kt_views_agree_exactly(self):
        result = floor_short(ErrorSpec(epsilon=1e-30), ENV300)
        assert ENV300.joules_to_kt(result.floor_joule) == pytest.approx(
            result.floor_kt, rel=1e-15
        )

    def test_inverse_e_gives_exactly_one_kt(self):
        result = floor_short(ErrorSpec(epsilon=math.exp(-1.0)), ENV300)
        assert result.floor_kt == pytest.approx(1.0, abs=1e-15)

    def test_coin_flip_limit_is_ln_two(self):
        result = floor_short(ErrorSpec(epsilon=0.4999999999), ENV300)
        assert result.floor_kt == pytest.approx(math.log(2.0), rel=1e-8)


class TestFloorLong:
    def test_hundred_kt_scale_example(self):
        spec = ErrorSpec(epsilon=1e-25, observation_time=3.156e7, correlation_time=1e-10)
        result = floor_long(spec, ENV300)
        assert result.floor_kt == pytest.approx(FLOOR_KT_LONG_EXAMPLE, rel=1e-12)
        assert result.regime == "long"

    def test_window_of_one_tau_reduces_to_short_floor(self):
        spec = ErrorSpec(epsilon=1e-9, observation_time=1e-9, correlation_time=1e-9)
        assert floor_long(spec, ENV300).floor_kt == floor_short(spec, ENV300).floor_kt

    @pytest.mark.parametrize(
        "epsilon, t_o, tau",
        [
            (1e-25, 3.156e7, 1e-10),
            (1e-9, 2e-6, 1e-9),
            (0.3, 1.0, 0.7),
            (1e-300, 1e300, 1e-8),
        ],
    )
    def test_adds_ln_window_to_the_short_floor_exactly(self, epsilon, t_o, tau):
        spec = ErrorSpec(epsilon=epsilon, observation_time=t_o, correlation_time=tau)
        assert floor_long(spec, ENV300).floor_kt == (
            floor_short(spec, ENV300).floor_kt + math.log(t_o / tau)
        )

    def test_doubling_window_adds_ln_two(self):
        base = floor_long(
            ErrorSpec(epsilon=1e-9, observation_time=2e-6, correlation_time=1e-9),
            ENV300,
        )
        doubled = floor_long(
            ErrorSpec(epsilon=1e-9, observation_time=4e-6, correlation_time=1e-9),
            ENV300,
        )
        assert doubled.floor_kt - base.floor_kt == pytest.approx(
            math.log(2.0), rel=1e-9
        )

    def test_equivalent_to_short_floor_at_rescaled_epsilon(self):
        spec = ErrorSpec(epsilon=1e-25, observation_time=3.156e7, correlation_time=1e-10)
        rescaled = ErrorSpec(epsilon=1e-25 * 1e-10 / 3.156e7)
        assert floor_long(spec, ENV300).floor_kt == pytest.approx(
            floor_short(rescaled, ENV300).floor_kt, rel=1e-12
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            floor_long(ErrorSpec(epsilon=1e-9, observation_time=1.0), ENV300)
        with pytest.raises(ValueError):
            floor_long(
                ErrorSpec(
                    epsilon=1e-9, observation_time=0.5e-9, correlation_time=1e-9
                ),
                ENV300,
            )
        with pytest.raises(ValueError, match="t_o/tau overflows"):
            floor_long(
                ErrorSpec(
                    epsilon=1e-9, observation_time=1e308, correlation_time=1e-300
                ),
                ENV300,
            )


class TestInstantaneousErrorProb:
    def test_zero_threshold_is_fair_coin(self):
        assert instantaneous_error_prob(0.0, SIGMA_1FF_300K) == 0.5

    def test_three_sigma_example(self):
        eps = instantaneous_error_prob(3.0 * SIGMA_1FF_300K, SIGMA_1FF_300K)
        assert eps == pytest.approx(TAIL_AT_3, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            instantaneous_error_prob(1e-3, 0.0)
        with pytest.raises(ValueError):
            instantaneous_error_prob(-1e-3, 1e-3)


class TestMultiSampleError:
    def test_single_sample_identity(self):
        assert multi_sample_error(1e-9, 1) == pytest.approx(1e-9, rel=1e-15)

    def test_tiny_probability_large_n_avoids_cancellation(self):
        assert multi_sample_error(1e-9, 1_000_000) == pytest.approx(
            9.995001671245e-4, rel=1e-11
        )

    def test_moderate_example(self):
        assert multi_sample_error(1.3499e-3, 100) == pytest.approx(
            0.12635502555302, rel=1e-12
        )

    def test_edge_probabilities(self):
        assert multi_sample_error(0.0, 1000) == 0.0
        assert multi_sample_error(1.0, 3) == 1.0

    def test_integer_n_enforced(self):
        with pytest.raises(TypeError):
            multi_sample_error(1e-3, 2.5)
        with pytest.raises(ValueError):
            multi_sample_error(1e-3, 0)
        with pytest.raises(ValueError):
            multi_sample_error(1.5, 10)

    @given(
        st.floats(min_value=1e-12, max_value=0.99),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_union_bound_and_monotonicity(self, p, n):
        value = multi_sample_error(p, n)
        assert 0.0 < value <= 1.0
        assert value <= n * p * (1.0 + 1e-12)
        assert value >= multi_sample_error(p, max(1, n - 1)) - 1e-15


class TestRequiredSwing:
    def test_frozen_example(self):
        # Target the 3-sigma tail: swing must be 6 sigma, energy 2*9 = 18 kT.
        need = required_swing(1.3499e-3, make_stage())
        assert need.swing_voltage == pytest.approx(12.21106252e-3, rel=1e-8)
        assert need.energy_kt == pytest.approx(17.99999467, rel=1e-8)
        assert need.energy_joule == pytest.approx(
            ENV300.kt_to_joules(need.energy_kt), rel=1e-15
        )

    def test_energy_exceeds_floor_everywhere(self):
        stage = make_stage()
        for eps in np.geomspace(1e-30, 1e-2, 57):
            e_kt = required_swing(float(eps), stage).energy_kt
            assert e_kt > -math.log(eps)

    # E1 = 2*x**2 kT at x = Phi_bar^{-1}(eps) meets ln(1/eps) at
    # eps* ~ 0.1754 (x ~ 0.9328).
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(eps=st.floats(1e-300, 0.17), cap=st.floats(1e-18, 1e-9))
    def test_energy_is_at_least_the_floor_below_the_crossover(self, eps, cap):
        need = required_swing(eps, make_stage(cap=cap))
        assert need.energy_kt >= -math.log(eps)

    def test_energy_is_below_the_floor_past_the_crossover(self):
        need = required_swing(0.2, make_stage())
        assert need.energy_kt == pytest.approx(1.4166526, rel=1e-7)
        assert need.energy_kt < -math.log(0.2)

    def test_ratio_to_floor_approaches_four(self):
        stage = make_stage()
        ratio_1e30 = required_swing(1e-30, stage).energy_kt / FLOOR_KT_1E30
        assert ratio_1e30 == pytest.approx(3.8051105, rel=1e-7)
        ratios = [
            required_swing(float(eps), stage).energy_kt / -math.log(eps)
            for eps in np.geomspace(1e-30, 1e-2, 29)
        ]
        # Grid runs toward larger epsilon, so the ratio must fall.
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        assert all(r < 4.0 for r in ratios)

    def test_swing_vanishes_at_coin_flip_limit(self):
        need = required_swing(0.4999999, make_stage())
        assert need.swing_voltage < 1e-5 * SIGMA_1FF_300K

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            required_swing(0.5, make_stage())
        with pytest.raises(ValueError):
            required_swing(0.0, make_stage())

    @pytest.mark.parametrize(
        "temperature, cap, swing",
        # u1**2 overflows a finite swing; kT/C overflows sigma itself.
        [(1e6, 5e-324, "2.35186042331807e+154"), (1e300, 1e-300, "inf")],
    )
    def test_non_finite_swing_or_energy_is_refused_by_name(
        self, temperature, cap, swing
    ):
        env = PhysicalEnvironment(temperature=temperature)
        stage = RcStage(capacitance=cap, resistance=1e6, swing_voltage=0.0, env=env)
        with pytest.raises(ValueError) as info:
            required_swing(1e-12, stage)
        assert str(info.value) == (
            f"required swing {swing} V on C={cap!r} F for epsilon_target=1e-12 "
            "overflows the charge energy C*U1**2/2"
        )


class TestObservationCount:
    def test_float_quotient_near_integer_is_that_integer(self):
        # 1e-7/1e-9 is 99.99999999999999 in floats; the count is 100.
        assert observation_count(1e-7, 1e-9) == 100
        assert observation_count(1e-8, 1e-9) == 10

    def test_fractional_windows_floor(self):
        assert observation_count(1.05e-8, 1e-9) == 10
        assert observation_count(1.999e-9, 1e-9) == 1

    def test_huge_exact_multiple(self):
        assert observation_count(3.156e7, 1e-10) == 315_600_000_000_000_000

    def test_window_shorter_than_tau_rejected(self):
        with pytest.raises(ValueError):
            observation_count(0.999e-9, 1e-9)

    def test_overflowing_quotient_is_refused_by_name(self):
        with pytest.raises(ValueError) as info:
            observation_count(1e300, 1e-300)
        assert str(info.value) == "t_o/tau overflows for t_o=1e+300 s, tau=1e-300 s"

    @pytest.mark.parametrize("window", [math.inf, math.nan])
    def test_non_finite_window_is_refused_by_name(self, window):
        message = f"^observation_time must be finite, got {window!r}$"
        with pytest.raises(ValueError, match=message):
            observation_count(window, 1e-9)


class TestFirstPassageMc:
    def test_oracle_reference_values_regenerate(self):
        rho = math.exp(-1.0)
        for (threshold, n_obs), expected in AR1_EXCEEDANCE.items():
            assert exceedance_probability(threshold, n_obs, rho) == pytest.approx(
                expected, rel=1e-6
            )

    def test_deterministic_given_seed(self):
        stage = make_stage()
        kwargs = dict(
            threshold=2.0 * SIGMA_1FF_300K,
            observation_time=1e-8,
            trials=5000,
            seed=99,
        )
        r1 = first_passage_mc(stage, **kwargs)
        r2 = first_passage_mc(stage, **kwargs)
        assert r1.hits == r2.hits
        assert r1.epsilon_hat == r2.epsilon_hat

    def test_worker_count_does_not_change_results(self):
        stage = make_stage()
        results = [
            first_passage_mc(
                stage,
                threshold=2.0 * SIGMA_1FF_300K,
                observation_time=1e-8,
                trials=20_000,
                seed=31,
                workers=w,
            )
            for w in (1, 2, 3)
        ]
        assert results[0].hits == results[1].hits == results[2].hits

    @pytest.mark.parametrize("k_sigma, t_obs, hits", [(3.0, 1e-9, 97), (4.0, 1e-7, 248)])
    def test_benchmark_hit_counts_are_pinned(self, k_sigma, t_obs, hits):
        # tau = 1e-10 s, so n_obs = 10 and 1000: the benchmark's two MC
        # workloads at its default seed.  Any change of stream fails here.
        result = first_passage_mc(
            make_stage(res=1e5), k_sigma * SIGMA_1FF_300K, t_obs, trials=8192, seed=12345
        )
        assert result.n_observations == round(t_obs / 1e-10)
        assert result.hits == hits

    def test_long_hold_pin_holds_on_two_threads(self, monkeypatch):
        # 8 MiB chunks of 1047 paths of 1001 draws: 8192 trials make 8 chunks,
        # the last one short, which workers=2 runs in order on the calling
        # thread.
        counts = []
        chunk_hits = floors._chunk_hits

        def recording(*args):
            counts.append(args[6])
            return chunk_hits(*args)

        monkeypatch.setattr(floors, "_chunk_hits", recording)
        result = first_passage_mc(
            make_stage(res=1e5), 4.0 * SIGMA_1FF_300K, 1e-7, trials=8192,
            seed=12345, workers=2,
        )
        assert result.hits == 248
        assert counts == [1047] * 7 + [863]

    @pytest.mark.parametrize("t_obs, limit_mib", [(1e-7, 10), (1e-9, 0.5)])
    def test_traced_peak_memory_is_bounded(self, t_obs, limit_mib):
        # n_obs = 1000 holds one 8 MiB chunk (the 32 MiB chunk it replaced
        # traced 31.4 MiB).  n_obs = 10 holds a 0.34 MiB chunk of 4096
        # trials and a tile of one look; a tile of all 10 looks would add
        # 0.31 MiB, more than the look-by-look loop's 0.48 MiB in all.
        args = (make_stage(res=1e5), 4.0 * SIGMA_1FF_300K, t_obs)
        first_passage_mc(*args, trials=10, seed=1)  # lazy imports and classes
        tracemalloc.start()
        try:
            first_passage_mc(*args, trials=8192, seed=12345)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20

    def test_failed_layout_probe_falls_back_to_fresh_generators(self, monkeypatch):
        # A moved Philox struct or a missing C normal fill each leave no
        # generator to re-key.
        args = (make_stage(res=1e5), 3.0 * SIGMA_1FF_300K, 1e-9)
        fast = first_passage_mc(*args, trials=8192, seed=12345)
        for name, failed in [
            ("_philox_layout_matches", lambda: False),
            ("_normal_fill", lambda: None),
        ]:
            with monkeypatch.context() as patch:
                patch.setattr(noise, name, failed)
                assert noise.rekeyable_generator() is None
                slow = first_passage_mc(*args, trials=8192, seed=12345)
            assert slow.hits == 97
            assert slow == fast

    def test_path_generator_is_called_once_per_trial(self, monkeypatch):
        # noise._fill_paths keys every trial's stream through
        # noise.path_generator, where the benchmark's tracer counts trials.
        calls = []
        original = noise.path_generator

        def counting(seed, index, generator=None):
            calls.append(index)
            return original(seed, index, generator)

        monkeypatch.setattr(noise, "path_generator", counting)
        result = first_passage_mc(
            make_stage(res=1e5), 3.0 * SIGMA_1FF_300K, 1e-9, trials=8192, seed=12345
        )
        assert result.hits == 97
        assert calls == list(range(8192))

    def test_chunk_byte_limit_keeps_hit_counts(self, monkeypatch):
        # 100 rows of 11 float64 per chunk instead of 4096: 82 chunks, and
        # trial i still draws stream (seed, i).
        counts = []
        chunk_hits = floors._chunk_hits

        def recording(*args):
            counts.append(args[6])
            return chunk_hits(*args)

        monkeypatch.setattr(floors, "_MC_CHUNK_BYTES", 100 * 11 * 8)
        monkeypatch.setattr(floors, "_chunk_hits", recording)
        result = first_passage_mc(
            make_stage(res=1e5), 3.0 * SIGMA_1FF_300K, 1e-9, trials=8192, seed=12345
        )
        assert result.hits == 97
        assert counts == [100] * 81 + [92]

    # Scaling C by 4**j and R by 4**-j keeps tau and a, and scales sigma, b
    # and a threshold k*sigma by 2**-j; a power of two commutes with every
    # rounding away from overflow and underflow, so each path and each
    # comparison scale exactly.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        cap=st.floats(1e-17, 1e-13), res=st.floats(1e3, 1e7), j=st.integers(1, 8),
        k_sigma=st.floats(0.0, 5.0), n_obs=st.integers(1, 40),
        trials=st.integers(1, 2000), seed=st.integers(0, 2**64 - 1),
    )
    def test_scaled_stage_gives_identical_hits(
        self, cap, res, j, k_sigma, n_obs, trials, seed
    ):
        results = []
        for scale in (1.0, 4.0**j):
            stage = make_stage(cap=cap * scale, res=res / scale)
            t_obs = n_obs * stage.correlation_time
            results.append(first_passage_mc(
                stage, k_sigma * stage.noise_sigma, t_obs, trials=trials, seed=seed
            ))
        plain, scaled = results
        assert (scaled.hits, scaled.epsilon_hat) == (plain.hits, plain.epsilon_hat)

    def test_window_past_chunk_byte_limit_is_refused_before_allocating(
        self, monkeypatch
    ):
        counts = []

        def recording(*args):
            counts.append(args[6])
            return 0

        monkeypatch.setattr(floors, "_chunk_hits", recording)
        stage, threshold = make_stage(res=1e5), 3.0 * SIGMA_1FF_300K
        # tau = 1e-10 s; 4194304 float64 are exactly 32 MiB.
        result = first_passage_mc(stage, threshold, 4194303e-10, trials=2, seed=1)
        assert result.n_observations == 4194303
        assert counts == [1, 1]
        with pytest.raises(ValueError, match=r"t_o/tau = 4194304 .* 4194303"):
            first_passage_mc(stage, threshold, 4194304e-10, trials=2, seed=1)
        assert counts == [1, 1]

    def test_draw_limit_is_checked_before_any_job(self, monkeypatch):
        # 10**20 trials would list about 2.4e16 chunk jobs; the draw limit
        # refuses them before the list or any array is built.
        def no_chunk(*args):
            raise AssertionError("a refused run must draw nothing")

        monkeypatch.setattr(floors, "_chunk_hits", no_chunk)
        stage, threshold = make_stage(res=1e5), 3.0 * SIGMA_1FF_300K
        with pytest.raises(
            ValueError, match=r"^100000000000000000000 trials x 11 draws per path .* 1e\+10"
        ):
            first_passage_mc(stage, threshold, 1e-9, trials=10**20, seed=1)

    def test_draw_limit_admits_exactly_its_size(self, monkeypatch):
        # A limit of 8192 x 11 draws: the benchmark's short-path run is
        # admitted unchanged and one more trial is refused.
        monkeypatch.setattr(floors, "MAX_MC_DRAWS", 8192 * 11)
        stage, threshold = make_stage(res=1e5), 3.0 * SIGMA_1FF_300K
        assert first_passage_mc(stage, threshold, 1e-9, trials=8192, seed=12345).hits == 97
        with pytest.raises(ValueError, match="8193 trials x 11 draws per path"):
            first_passage_mc(stage, threshold, 1e-9, trials=8193, seed=12345)

    def test_single_chunk_runs_without_a_thread_pool(self, monkeypatch):
        # Every chunk runs on the calling thread, whatever ``workers`` asks
        # for: one chunk at workers=2, and 82 chunks at workers=10**6.
        def no_pool(*args, **kwargs):
            raise AssertionError("the Monte Carlo must not start a thread pool")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        kwargs = dict(threshold=2.0 * SIGMA_1FF_300K, observation_time=1e-8, seed=7)
        pooled = first_passage_mc(make_stage(), trials=1000, workers=2, **kwargs)
        serial = first_passage_mc(make_stage(), trials=1000, workers=1, **kwargs)
        assert pooled == serial

        monkeypatch.setattr(floors, "_MC_CHUNK_BYTES", 100 * 11 * 8)  # 82 chunks
        result = first_passage_mc(
            make_stage(res=1e5), 3.0 * SIGMA_1FF_300K, 1e-9, trials=8192,
            seed=12345, workers=10**6,
        )
        assert result.hits == 97

    @pytest.mark.parametrize(
        "n_obs", [1, 7, 31, 32, 33, 64, 100, 200, 1000, 2**16 + 1]
    )
    def test_trials_consume_per_path_streams(self, monkeypatch, n_obs):
        # Trial i of the Monte Carlo must see exactly the path that
        # stationary_path(seed, path_index=i) produces, across chunks of 10
        # trials with a short last one, whose tiles hold min(32, n_obs) looks
        # (the last tile short at 33, 100, 200, 1000 and 2**16 + 1).  From
        # 1000 looks on, lfilter builds every path, with the Python loop's
        # per-process budget spent whatever ran before.  The threshold sits
        # at the median path maximum (at least 0 V, as first_passage_mc
        # requires), so an ulp of difference in a maximum near it would
        # change the count.
        monkeypatch.setattr(floors, "_MC_CHUNK_BYTES", 10 * 8 * (n_obs + 1))
        if n_obs >= 1000:
            monkeypatch.setattr(noise, "_looped_samples", noise._PYTHON_RECURSION_MAX)
        stage = make_stage()
        process = OuProcess.from_stage(stage)
        trials, seed = 64, 17
        peaks = [
            stationary_path(process, 1e-9, n_obs, seed=seed, path_index=i).samples.max()
            for i in range(trials)
        ]
        threshold = max(float(np.median(peaks)), 0.0)
        expected_hits = sum(peak > threshold for peak in peaks)
        result = first_passage_mc(
            stage, threshold, observation_time=n_obs * 1e-9, trials=trials, seed=seed
        )
        assert result.n_observations == n_obs
        assert result.hits == expected_hits

    def test_estimate_matches_correlated_oracle(self):
        stage = make_stage()
        result = first_passage_mc(
            stage,
            threshold=2.0 * SIGMA_1FF_300K,
            observation_time=1e-8,
            trials=20_000,
            seed=12345,
        )
        exact = AR1_EXCEEDANCE[(2.0, 10)]
        band = 4.0 * math.sqrt(exact * (1.0 - exact) / result.trials)
        assert abs(result.epsilon_hat - exact) < band
        # Correlation between once-per-tau observations can only lower the
        # exceedance below the independent-sample analytic value.
        assert result.epsilon_hat < result.analytic_epsilon

    def test_zero_threshold_fair_coin_window(self):
        stage = make_stage()
        result = first_passage_mc(
            stage, threshold=0.0, observation_time=1e-8, trials=20_000, seed=5
        )
        # Independent coins would give 1 - 0.5**10 = 0.99902; correlation
        # drags the exact value down to 0.991929 (oracle).
        exact = exceedance_probability(0.0, 10, math.exp(-1.0))
        band = 4.0 * math.sqrt(exact * (1.0 - exact) / result.trials)
        assert abs(result.epsilon_hat - exact) < band
        assert abs(result.epsilon_hat - (1.0 - 0.5**10)) < 0.02

    def test_analytic_field_is_the_independence_prediction(self):
        stage = make_stage()
        threshold = 2.5 * SIGMA_1FF_300K
        result = first_passage_mc(
            stage, threshold, observation_time=1e-8, trials=100, seed=1
        )
        assert result.analytic_epsilon == multi_sample_error(
            instantaneous_error_prob(threshold, SIGMA_1FF_300K), 10
        )

    def test_low_confidence_flag(self):
        stage = make_stage()
        result = first_passage_mc(
            stage,
            threshold=6.0 * SIGMA_1FF_300K,
            observation_time=1e-8,
            trials=2000,
            seed=8,
        )
        assert result.low_confidence is True
        assert result.hits == 0
        confident = first_passage_mc(
            stage,
            threshold=2.0 * SIGMA_1FF_300K,
            observation_time=1e-8,
            trials=2000,
            seed=8,
        )
        assert confident.low_confidence is False

    def test_counts_must_be_integers(self):
        stage = make_stage()
        kwargs = dict(threshold=1e-3, observation_time=1e-8, seed=1)
        with pytest.raises(TypeError):
            first_passage_mc(stage, trials=2.5, **kwargs)
        with pytest.raises(TypeError):
            first_passage_mc(stage, trials=10, workers=2.5, **kwargs)
        one = first_passage_mc(stage, trials=True, **kwargs)
        assert type(one.trials) is int and one.trials == 1
        assert first_passage_mc(
            stage, trials=np.int64(10), workers=np.int64(2), **kwargs
        ) == first_passage_mc(stage, trials=10, **kwargs)

    def test_seed_must_be_an_integer_in_key_range(self, monkeypatch):
        # Checked before any chunk is allocated or drawn.
        def no_chunk(*args):
            raise AssertionError("a refused seed must draw nothing")

        stage = make_stage()
        kwargs = dict(threshold=1e-3, observation_time=1e-8, trials=10)
        with monkeypatch.context() as patch:
            patch.setattr(floors, "_chunk_hits", no_chunk)
            for seed in (2.5, 12345.0, "1"):
                with pytest.raises(TypeError):
                    first_passage_mc(stage, seed=seed, **kwargs)
            for seed in (2**64, -(2**63) - 1):
                with pytest.raises(ValueError) as info:
                    first_passage_mc(stage, seed=seed, **kwargs)
                assert str(info.value) == f"seed must lie in [-2**63, 2**64), got {seed}"
        one = first_passage_mc(stage, seed=1, **kwargs)
        assert first_passage_mc(stage, seed=True, **kwargs) == one
        assert first_passage_mc(stage, seed=np.int64(1), **kwargs) == one

    def test_domain_errors(self):
        stage = make_stage()
        with pytest.raises(ValueError):
            first_passage_mc(stage, 1e-3, observation_time=1e-10, trials=10, seed=1)
        with pytest.raises(ValueError):
            first_passage_mc(stage, 1e-3, observation_time=1e-8, trials=0, seed=1)
        with pytest.raises(ValueError):
            first_passage_mc(
                stage, 1e-3, observation_time=1e-8, trials=10, seed=1, workers=0
            )
        with pytest.raises(ValueError):
            first_passage_mc(stage, -1e-3, observation_time=1e-8, trials=10, seed=1)
        with pytest.raises(ValueError, match="threshold must be finite"):
            first_passage_mc(
                stage, math.inf, observation_time=1e-8, trials=10, seed=1
            )
        # kT/C underflows, so sigma = sqrt(kT/C) is 0 at room temperature.
        huge = make_stage(cap=1.7e308, res=1e-310)
        with pytest.raises(ValueError) as info:
            first_passage_mc(huge, 0.0, observation_time=1e-1, trials=10, seed=1)
        assert str(info.value) == (
            "noise sigma = sqrt(kT/C) underflows to 0 V at C = 1.7e+308 F"
        )
