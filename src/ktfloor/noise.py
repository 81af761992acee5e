"""Johnson-noise voltage on an RC node as an exactly discretized OU process.

The thermal voltage across the capacitor of an RC stage is an
Ornstein-Uhlenbeck process with stationary standard deviation
sigma = sqrt(kT/C) (equipartition) and correlation time tau = RC.  One update
over a step dt is

    v' = v * exp(-dt/tau) + sigma * sqrt(1 - exp(-2*dt/tau)) * g,

with g a standard normal draw.  This update is exact for any dt — sample
statistics carry no discretization bias, so statistical tests can use the
analytic moments directly.

Randomness comes from counter-based Philox streams keyed by
``(seed, path_index)``: path i always consumes its own stream, so results do
not depend on how many paths are generated, in what order, or on how work is
split across threads.  A Philox's whole state is its (key, counter) pair, so
a hot loop may pass one Philox-backed ``np.random.Generator`` to
``path_generator`` and have it re-keyed per path: the draws are bit-identical
to a freshly built generator's, without the cost of constructing one per path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import RcStage
from .csvout import write_numeric_csv

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_SEED_MIN = -(1 << 63)
_KEY_LIMIT = 1 << 64
# Counter and output buffer of a freshly keyed Philox.  The state setter
# copies the words, and converts a tuple faster than a uint64 array.
_ZERO_WORDS = (0, 0, 0, 0)


def path_generator(
    seed: int, path_index: int, generator: np.random.Generator | None = None
) -> np.random.Generator:
    """Philox generator for one path, keyed by (seed, path_index).

    ``seed`` must lie in [-2**63, 2**64) and ``path_index`` in [0, 2**64); a
    negative seed is taken modulo 2**64.  Wider values would be masked onto
    another key silently, so they raise ValueError.

    With a Philox-backed ``generator`` given, its bit generator is re-keyed in
    place (zero counter, empty buffer) and that same object is returned
    instead of a new one; the draws are bit-identical either way.  The object
    is reused, so it must not be shared between threads, and draws meant for
    an earlier path must be taken before it is re-keyed.
    """
    if not _SEED_MIN <= seed < _KEY_LIMIT:
        raise ValueError(f"seed must lie in [-2**63, 2**64), got {seed!r}")
    if not 0 <= path_index < _KEY_LIMIT:
        raise ValueError(f"path_index must lie in [0, 2**64), got {path_index!r}")
    key = [seed & _UINT64_MASK, path_index & _UINT64_MASK]
    if generator is None:
        return np.random.Generator(np.random.Philox(key=np.array(key, dtype=np.uint64)))
    generator.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_WORDS, "key": key},
        "buffer": _ZERO_WORDS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


@dataclass(frozen=True)
class OuProcess:
    """Stationary OU parameters: sigma = sqrt(kT/C) volts, tau = RC seconds.

    ``stationary_sigma`` is 0 only for a zero-temperature bath, in which case
    paths decay deterministically.
    """

    stationary_sigma: float
    correlation_time: float

    def __post_init__(self) -> None:
        if not self.stationary_sigma >= 0.0:
            raise ValueError(
                f"stationary_sigma must be >= 0 V, got {self.stationary_sigma!r}"
            )
        if not self.correlation_time > 0.0:
            raise ValueError(
                f"correlation_time must be > 0 s, got {self.correlation_time!r}"
            )

    @classmethod
    def from_stage(cls, stage: RcStage) -> "OuProcess":
        """Noise process of a stage's input node: sqrt(kT/C), RC."""
        kt = stage.env.thermal_energy()
        return cls(
            stationary_sigma=math.sqrt(kt / stage.capacitance),
            correlation_time=stage.correlation_time,
        )

    def update_coefficients(self, dt: float) -> tuple[float, float]:
        """Exact one-step AR(1) coefficients (a, b) for step size dt.

        a = exp(-dt/tau); b = sigma*sqrt(1 - a**2) computed via expm1 so small
        steps do not lose precision to cancellation.  Every path generator in
        this module uses these same two numbers, which keeps scalar stepping,
        vectorized paths, and the Monte Carlo bit-identical.
        """
        if not dt > 0.0:
            raise ValueError(f"dt must be > 0 s, got {dt!r}")
        a = math.exp(-dt / self.correlation_time)
        b = self.stationary_sigma * math.sqrt(-math.expm1(-2.0 * dt / self.correlation_time))
        return a, b

    def step(self, v: float, dt: float, g: float) -> float:
        """Advance one voltage sample by dt using the normal draw g."""
        a, b = self.update_coefficients(dt)
        return a * v + b * g


@dataclass(frozen=True)
class NoisePath:
    """A sampled voltage path: v0 at t=0, then samples[k] at t=(k+1)*dt."""

    dt: float
    v0: float
    samples: np.ndarray
    seed: int
    path_index: int = 0

    def times(self) -> np.ndarray:
        """Sample instants (k+1)*dt for k = 0..n-1, excluding t=0."""
        return self.dt * np.arange(1, self.samples.size + 1)

    def write_csv(self, path) -> None:
        """Dump the path as RFC-4180 CSV columns (t, V), including t=0."""
        rows = zip(self.times().tolist(), self.samples.tolist())
        write_numeric_csv(path, ("t", "V"), [(0.0, self.v0), *rows])


def _recurse(a: float, b: float, z: np.ndarray, v0: float) -> np.ndarray:
    # Importing scipy.signal costs about 1 s and 50 MB of RSS, and only path
    # generation needs it, so it loads here on first use rather than with
    # the package; the Monte Carlo and the other commands never pay it.
    from scipy.signal import lfilter

    # y[k] = a*y[k-1] + b*z[k], y[-1] = v0, via an IIR filter.  Bit-identical
    # to the scalar loop: same products, and IEEE addition commutes.
    y, _ = lfilter([b], [1.0, -a], z, zi=np.array([a * v0]))
    return y


def sample_path(
    process: OuProcess,
    dt: float,
    n: int,
    seed: int,
    v0: float = 0.0,
    path_index: int = 0,
) -> NoisePath:
    """Generate n exact OU samples starting from the fixed voltage v0.

    Consumes exactly n standard normals from the (seed, path_index) stream.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    a, b = process.update_coefficients(dt)
    z = path_generator(seed, path_index).standard_normal(n)
    return NoisePath(
        dt=dt, v0=v0, samples=_recurse(a, b, z, v0), seed=seed, path_index=path_index
    )


def stationary_path(
    process: OuProcess,
    dt: float,
    n: int,
    seed: int,
    path_index: int = 0,
) -> NoisePath:
    """Generate n OU samples with v0 drawn from the stationary distribution.

    Consumes n+1 normals: the first becomes v0 = sigma*z[0], the rest drive
    the recursion.  This is the entry point for equilibrium statistics — every
    sample, including v0, is exactly N(0, sigma**2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n!r}")
    a, b = process.update_coefficients(dt)
    z = path_generator(seed, path_index).standard_normal(n + 1)
    v0 = process.stationary_sigma * z[0]
    return NoisePath(
        dt=dt, v0=v0, samples=_recurse(a, b, z[1:], v0), seed=seed, path_index=path_index
    )
