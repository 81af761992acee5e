"""Bit-error probabilities against a noisy threshold and the energy floors they imply.

A logic value held as a voltage on an RC node rides on Gaussian thermal noise
of standard deviation sigma = sqrt(kT/C).  The probability that one
observation crosses a threshold u above the nominal level is the normal upper
tail Phi_bar(u/sigma).  Demanding error probability epsilon forces a minimum
swing and therefore a minimum dissipated energy:

    single observation:   E >= kT * ln(1/epsilon)
    hold for time t_o:    E >= kT * (ln(1/epsilon) + ln(t_o/tau))

where tau = RC is the noise correlation time and the held state is effectively
re-examined once per tau.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .circuit import RcStage
# benchmarks/tracing.py patches floors.path_generator (ROADMAP item 17).
from .noise import OuProcess, _fill_paths, _require_seed, path_generator
from .quantities import PhysicalEnvironment, _count_text, require

_SQRT2 = math.sqrt(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_UNIT_NORMAL = NormalDist()
# Below this tail, log_tail_probability leaves the log of erfc for its
# asymptotic series, which stays finite where erfc underflows.
_LOG_TAIL_SEAM = 1e-280

# Trials per vectorized Monte Carlo batch, fewer when a batch's
# (trials, n_obs + 1) float64 array would pass _MC_CHUNK_BYTES: 1047 trials
# at n_obs = 1000, all 4096 at n_obs = 10, and never fewer than one.
# Per-trial streams make the hit counts independent of batching.
_MC_CHUNK = 4096
_MC_CHUNK_BYTES = 8 * 2**20
# Observations per trial: one path of n_obs + 1 float64 fills at most 32 MiB.
MAX_MC_OBSERVATIONS = 4 * 2**20 - 1
# Looks per tile of the AR(1) kernel (see _chunk_hits): up to 32, holding no
# more draws than one look of a full chunk or 1/32 of this chunk, whichever
# is more.  A full chunk of short paths then steps one look at a time and
# holds no more than a look-by-look loop would.
_MC_TILE = 32
# Normal draws per Monte Carlo call, trials * (n_obs + 1): 15 to 75 minutes
# on one core, and about 1000x the largest run in the tests (100000 x 101).
MAX_MC_DRAWS = 10**10


def tail_probability(x: float) -> float:
    """Upper tail of the unit normal, P(N(0,1) > x) = erfc(x/sqrt(2))/2.

    Within 2 ulps of erfc(t)/2 at the double t = x/sqrt(2); rounding t adds
    up to about x**2 * 2**-53 relative error.  Takes a scalar: an ndarray
    raises TypeError.
    """
    return 0.5 * math.erfc(x / _SQRT2)


def log_tail_probability(x: float) -> float:
    """Natural log of the normal upper tail, finite far past erfc underflow.

    ``tail_probability`` returns exactly 0.0 beyond x ~ 38.6 where the true
    value drops below the smallest double; the log stays representable
    (roughly -x**2/2) out to x ~ 1e150.  Use this form whenever the quantity
    of interest is ln(1/epsilon) rather than epsilon itself.  Within 3 ulps
    of 60-digit references on [0, 1e150]; below 0 it is about minus the
    tail at -x and shares that tail's error.
    """
    if x < 0.0:
        # log1p keeps the relative accuracy of the small tail at -x, and
        # 0.0 - p turns an underflowed tail into log1p(+0.0) = +0.0.
        return math.log1p(0.0 - tail_probability(-x))
    p = tail_probability(x)
    if p > _LOG_TAIL_SEAM:
        return math.log(p)
    # -x**2/2 - ln x - ln(2 pi)/2 + log1p(sum_k (-1)**k (2k-1)!! / x**(2k)),
    # the sum in Horner form to k = 8; past the seam (x > 35.7) the first
    # term left out is below 1e-20.
    r = 1.0 / (x * x)
    s = 0.0
    for k in range(8, 0, -1):
        s = -(2 * k - 1) * r * (1.0 + s)
    return -0.5 * x * x - math.log(x) - _HALF_LOG_2PI + math.log1p(s)


def tail_quantile(epsilon: float) -> float:
    """Inverse of :func:`tail_probability` on (0, 0.5].

    Returns the x with P(N(0,1) > x) = epsilon, by Wichura's AS241 in
    ``statistics.NormalDist``; within 5 ulps of 60-digit references down to
    epsilon = 5e-324.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError(
            f"epsilon must lie in (0, 0.5] for the tail quantile, got {epsilon!r}"
        )
    # 0.0 - q, not -q, so that epsilon = 0.5 gives +0.0.
    return 0.0 - _UNIT_NORMAL.inv_cdf(epsilon)


@dataclass(frozen=True)
class ErrorSpec:
    """Target error probability, optionally with a state-holding window.

    ``epsilon`` must lie in the open interval (0, 0.5): epsilon = 0.5 is a
    fair coin (no logic), epsilon = 0 needs infinite energy.  The time fields
    are only needed for the long-observation floor.
    """

    epsilon: float
    observation_time: float = 0.0
    correlation_time: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(
                "epsilon must lie in the open interval (0, 0.5), "
                f"got {self.epsilon!r}"
            )
        require("observation_time", self.observation_time, "s", ge=0)
        if self.correlation_time is not None:
            require("correlation_time", self.correlation_time, "s", gt=0)


@dataclass(frozen=True)
class FloorResult:
    """A dissipation floor in both unit systems plus its regime label.

    ``regime`` is ``"short"`` for a single-shot observation (window ≲ tau) or
    ``"long"`` for a state held over many correlation times.
    """

    floor_joule: float
    floor_kt: float
    regime: str


def floor_short(spec: ErrorSpec, env: PhysicalEnvironment) -> FloorResult:
    """Minimum dissipation for one observation at error probability epsilon.

    kT * ln(1/epsilon): ~69.1 kT at epsilon = 1e-30, ~0.69 kT as epsilon
    approaches a coin flip.
    """
    floor_kt = -math.log(spec.epsilon)
    return FloorResult(
        floor_joule=env.kt_to_joules(floor_kt), floor_kt=floor_kt, regime="short"
    )


def _window_ratio(t_o: float, tau: float) -> float:
    """t_o/tau, refused by name when the quotient overflows."""
    ratio = t_o / tau
    if ratio == math.inf:
        raise ValueError(f"t_o/tau overflows for t_o={t_o!r} s, tau={tau!r} s")
    return ratio


def floor_long(spec: ErrorSpec, env: PhysicalEnvironment) -> FloorResult:
    """Minimum dissipation to hold a state for observation_time without error.

    The noise decorrelates every tau, so holding for t_o means surviving
    ~t_o/tau independent chances: the per-chance epsilon must shrink by
    tau/t_o, adding kT * ln(t_o/tau) to the single-shot floor.  Requires
    observation_time >= correlation_time.
    """
    t_o, tau = spec.observation_time, spec.correlation_time
    if tau is None:
        raise ValueError("floor_long requires a correlation_time on the ErrorSpec")
    if t_o < tau:
        raise ValueError(
            "observation_time must be >= correlation_time for the long floor "
            f"(got t_o={t_o!r}, tau={tau!r})"
        )
    floor_kt = floor_short(spec, env).floor_kt + math.log(_window_ratio(t_o, tau))
    return FloorResult(
        floor_joule=env.kt_to_joules(floor_kt), floor_kt=floor_kt, regime="long"
    )


def instantaneous_error_prob(threshold: float, sigma: float) -> float:
    """P(noise voltage > threshold) for Gaussian noise of std dev sigma.

    sigma may be infinite (kT/C past the float range), which gives 0.5.
    """
    require("sigma", sigma, "V", gt=0, finite=False)
    require("threshold", threshold, "V", ge=0)
    return tail_probability(threshold / sigma)


def multi_sample_error(per_sample_epsilon: float, n_samples: int) -> float:
    """Probability of at least one error in n independent observations.

    1 - (1 - p)**n, computed via expm1/log1p so tiny p keeps full precision
    (p = 1e-9, n = 1e6 comes out 9.995e-4, not a cancellation casualty).
    """
    n_samples = require("n_samples", operator.index(n_samples), ge=1)
    if not 0.0 <= per_sample_epsilon <= 1.0:
        raise ValueError(
            f"per_sample_epsilon must lie in [0, 1], got {per_sample_epsilon!r}"
        )
    if per_sample_epsilon == 1.0:
        return 1.0
    return -math.expm1(n_samples * math.log1p(-per_sample_epsilon))


@dataclass(frozen=True)
class SwingRequirement:
    """Minimum swing and its energy price for a target error probability."""

    swing_voltage: float
    energy_joule: float
    energy_kt: float


def required_swing(epsilon_target: float, stage: RcStage) -> SwingRequirement:
    """Swing U1 needed so one observation against a half-swing threshold errs
    with probability epsilon_target, and the energy C*U1**2/2 that swing costs.

    U1 = 2*sigma*Phi_bar^{-1}(epsilon), so E1 = 2*kT*(Phi_bar^{-1}(epsilon))**2.
    That is above the kT*ln(1/epsilon) floor only below epsilon* ~ 0.1754,
    where the quantile is ~ 0.9328 and 2*x**2 = ln(1/epsilon); past it E1 is
    below the floor (1.417 kT against 1.609 kT at 0.2), and as epsilon -> 0
    it approaches 4x the floor.  Uses the stage's capacitance and bath; its
    configured swing is ignored.  Raises ValueError, naming the swing, when
    the swing or its energy is not finite.
    """
    if not 0.0 < epsilon_target < 0.5:
        raise ValueError(
            "epsilon_target must lie in the open interval (0, 0.5), "
            f"got {epsilon_target!r}"
        )
    u1 = 2.0 * stage.noise_sigma * tail_quantile(epsilon_target)
    try:
        e1 = 0.5 * stage.capacitance * u1**2
    except OverflowError:
        e1 = math.inf
    if not math.isfinite(e1):
        raise ValueError(
            f"required swing {u1!r} V on C={stage.capacitance!r} F for "
            f"epsilon_target={epsilon_target!r} overflows the charge energy "
            "C*U1**2/2"
        )
    return SwingRequirement(
        swing_voltage=u1, energy_joule=e1, energy_kt=stage.env.joules_to_kt(e1)
    )


def observation_count(observation_time: float, correlation_time: float) -> int:
    """Number of once-per-tau observations fitting in the window.

    floor(observation_time/tau) in exact arithmetic.  The float quotient of
    two decimal inputs can land a few ulps below an integer (1e-7/1e-9 gives
    99.99999999999999), so a quotient within 1e-9 relative of an integer is
    taken as that integer before flooring.
    """
    require("correlation_time", correlation_time, "s", gt=0)
    if observation_time < correlation_time:
        raise ValueError(
            "observation_time is shorter than one correlation time; "
            "no observation instants fit in the window"
        )
    require("observation_time", observation_time)
    quotient = _window_ratio(observation_time, correlation_time)
    nearest = round(quotient)
    if abs(quotient - nearest) <= 1e-9 * max(1.0, abs(quotient)):
        return int(nearest)
    return int(math.floor(quotient))


@dataclass(frozen=True)
class FirstPassageResult:
    """Monte Carlo estimate of the probability of any threshold crossing.

    ``analytic_epsilon`` is the independent-sample prediction
    multi_sample_error(tail(threshold/sigma), n_observations); observations
    spaced one correlation time apart are positively correlated, so the true
    value sits at or below it.  ``low_confidence`` flags runs whose expected
    hit count is under 10.
    """

    epsilon_hat: float
    std_err: float
    hits: int
    trials: int
    n_observations: int
    analytic_epsilon: float
    low_confidence: bool


def _chunk_hits(
    a: float,
    b: float,
    sigma: float,
    threshold: float,
    seed: int,
    first_trial: int,
    count: int,
    n_obs: int,
) -> int:
    """Exceedance count for trials [first_trial, first_trial + count)."""
    z = _fill_paths(seed, first_trial, count, n_obs + 1)
    # Look-major: b*z goes into a tile of `looks` by `count`, so each look
    # updates v and peak in place from one contiguous tile row (about
    # 3 x 8 KB at 1047 trials, inside L1d) and allocates nothing.  v*a + b*z
    # is the same sum as a*v + b*z, and max > threshold is "any look >
    # threshold", so hit counts match a look-by-look loop.
    looks = max(1, min(_MC_TILE, n_obs, max(_MC_CHUNK // count, n_obs // _MC_TILE)))
    v = sigma * z[:, 0]
    peak = np.full(count, -np.inf)
    tile = np.empty((looks, count))
    for k0 in range(1, n_obs + 1, looks):
        k1 = min(k0 + looks, n_obs + 1)
        for step in np.multiply(z[:, k0:k1].T, b, out=tile[: k1 - k0]):
            v *= a
            v += step
            np.maximum(peak, v, out=peak)
    return int(np.count_nonzero(peak > threshold))


def first_passage_mc(
    stage: RcStage,
    threshold: float,
    observation_time: float,
    trials: int,
    seed: int,
    workers: int = 1,
) -> FirstPassageResult:
    """Estimate the probability that thermal noise ever crosses the threshold.

    Each trial starts from an equilibrium voltage and is observed once per
    correlation time for floor(observation_time/tau) observations; a trial
    hits if any observation exceeds the threshold.  Trial i always consumes
    Philox stream (seed, i), so the estimate is byte-reproducible and
    independent of batching; ``seed`` is an integer in [-2**63, 2**64).
    Every chunk runs on the calling thread, so ``workers`` (an integer >= 1,
    like ``trials``) has no effect on speed or results.

    A batch holds whole paths in memory, about 8 MiB of them (one path when
    a path alone is larger).  Windows of more than MAX_MC_OBSERVATIONS =
    4194303 observations, one 32 MiB path, raise ValueError before any
    allocation, as do runs of more than MAX_MC_DRAWS = 10**10 draws,
    trials * (n_obs + 1).
    """
    process = OuProcess.from_stage(stage)
    sigma = process.stationary_sigma
    tau = process.correlation_time
    if sigma == 0.0:
        raise ValueError(
            "noise sigma = sqrt(kT/C) underflows to 0 V at "
            f"C = {stage.capacitance!r} F"
        )
    require("threshold", threshold, "V", ge=0)
    trials = require("trials", operator.index(trials), ge=1)
    require("workers", operator.index(workers), ge=1)
    seed = _require_seed(seed)
    n_obs = observation_count(observation_time, tau)
    if n_obs > MAX_MC_OBSERVATIONS:
        raise ValueError(
            f"t_o/tau = {_count_text(n_obs)} observations per trial exceed the "
            f"Monte Carlo limit of {MAX_MC_OBSERVATIONS}"
        )
    if trials * (n_obs + 1) > MAX_MC_DRAWS:
        raise ValueError(
            f"{trials} trials x {n_obs + 1} draws per path exceed the Monte "
            f"Carlo limit of {MAX_MC_DRAWS:.0e} normal draws"
        )
    a, b = process.update_coefficients(tau)

    rows = max(1, min(_MC_CHUNK, _MC_CHUNK_BYTES // (8 * (n_obs + 1))))
    hits = sum(
        _chunk_hits(a, b, sigma, threshold, seed, start, min(rows, trials - start), n_obs)
        for start in range(0, trials, rows)
    )

    epsilon_hat = hits / trials
    std_err = math.sqrt(epsilon_hat * (1.0 - epsilon_hat) / trials)
    analytic = multi_sample_error(
        instantaneous_error_prob(threshold, sigma), n_obs
    )
    return FirstPassageResult(
        epsilon_hat=epsilon_hat,
        std_err=std_err,
        hits=hits,
        trials=trials,
        n_observations=n_obs,
        analytic_epsilon=analytic,
        low_confidence=analytic * trials < 10.0,
    )
