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
split across threads.  ``_fill_paths``, the one routine that draws, returns
a new array of one row per stream, for the Monte Carlo and single paths
alike.  For more than one row it re-keys one ``rekeyable_generator`` per
row, copying a freshly keyed Philox's 96-byte state image over its own in
one write through ctypes, and fills each row with ``_normal_fill``, numpy's
C ``random_standard_normal_fill`` that ``standard_normal`` wraps.  Should a
per-process probe find numpy's C Philox state laid out otherwise, or the C
fill be missing, each row gets a fresh generator.

``sample_path`` and ``stationary_path`` run the recursion as a Python loop
for at most 2**16 samples per process and through ``scipy.signal.lfilter``
otherwise, with the same bytes either way; only a process that builds more
than 2**16 samples imports ``scipy.signal``.
"""

from __future__ import annotations

import ctypes
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .circuit import RcStage
from .csvout import write_numeric_csv
from .quantities import require

_UINT64_MASK = 0xFFFFFFFFFFFFFFFF
_SEED_MIN = -(1 << 63)
_KEY_LIMIT = 1 << 64
_SEED_RANGE = "seed must lie in [-2**63, 2**64), got {!r}"
# Most samples that sample_path and stationary_path build, 256 MiB per
# float64 array; a larger n raises ValueError before anything is allocated.
MAX_PATH_SAMPLES = 2**25
# Most samples a process runs through the Python AR(1) loop, and how many it
# has run; see _recurse.
_PYTHON_RECURSION_MAX = 2**16
_looped_samples = 0


class _PhiloxState(ctypes.Structure):
    """numpy's C ``philox_state`` (numpy/random/src/philox/philox.h).

    Not public numpy API: ``_philox_layout_matches`` checks it before any
    view is taken.
    """

    _fields_ = [
        ("counter", ctypes.POINTER(ctypes.c_uint64 * 4)),
        ("key", ctypes.POINTER(ctypes.c_uint64 * 2)),
        ("buffer_pos", ctypes.c_int),
        ("buffer", ctypes.c_uint64 * 4),
        ("has_uint32", ctypes.c_int),
        ("uinteger", ctypes.c_uint32),
    ]


# The re-key's image: the 96 bytes from buffer_pos to the end of the counter,
# which Cython's Philox lays out directly after the state struct, key then
# counter.  A freshly keyed Philox holds an empty buffer (buffer_pos = 4) of
# zero words, no buffered half word and a zero counter; the key words, 6
# and 7 of the image, are set per path.
_IMAGE_START = _PhiloxState.buffer_pos.offset
_FRESH_IMAGE = bytes(_PhiloxState(buffer_pos=4))[_IMAGE_START:] + bytes(48)


@functools.cache
def _philox_layout_matches() -> bool:
    """Whether ``_PhiloxState`` reads back a state set through numpy's setter,
    with the key and counter directly after the struct.

    Runs once per process.  The inline fields are compared, and the two
    pointers checked to point just past the struct, before they are
    followed, so a moved struct is never dereferenced.
    """
    counter = (0x0123456789ABCDEF, 0xFEDCBA9876543210, 0x0F1E2D3C4B5A6978, 3)
    key = (0x1122334455667788, 0x99AABBCCDDEEFF00)
    buffer = (0xA5A5A5A55A5A5A5A, 0x3C3C3C3CC3C3C3C3, 0x6996966996696996, 5)
    bit_generator = np.random.Philox()
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": counter, "key": key},
        "buffer": buffer,
        "buffer_pos": 3,
        "has_uint32": 1,
        "uinteger": 0x89ABCDEF,
    }
    address = bit_generator.ctypes.state_address
    view = _PhiloxState.from_address(address)
    inline = (view.buffer_pos, tuple(view.buffer), view.has_uint32, view.uinteger)
    if inline != (3, buffer, 1, 0x89ABCDEF):
        return False
    key_at = address + ctypes.sizeof(_PhiloxState)
    pointers = (ctypes.addressof(view.key.contents), ctypes.addressof(view.counter.contents))
    if pointers != (key_at, key_at + 16):
        return False
    return tuple(view.counter.contents) == counter and tuple(view.key.contents) == key


@functools.cache
def _rekeyable_generator_class() -> type:
    # Made on first use: subclassing np.random.Generator imports numpy.random
    # (about 10 ms), which ``import ktfloor`` otherwise never pays.
    class RekeyableGenerator(np.random.Generator):
        """Philox generator that ``path_generator`` re-keys by writing its state.

        Holds a 64-bit word view of its bit generator's 96-byte image and of
        a template of it; the generator keeps the bit generator, and so the
        memory the live view covers, alive.
        """

        __slots__ = ("_template", "_live")

        def __init__(self) -> None:
            bit_generator = np.random.Philox()
            super().__init__(bit_generator)
            image = (ctypes.c_char * len(_FRESH_IMAGE)).from_address(
                bit_generator.ctypes.state_address + _IMAGE_START
            )
            self._live = memoryview(image).cast("B").cast("Q")
            self._template = memoryview(bytearray(_FRESH_IMAGE)).cast("Q")

    return RekeyableGenerator


@functools.cache
def _normal_fill():
    """numpy's C ``random_standard_normal_fill(bitgen, count, out)``, or None.

    The function ``Generator.standard_normal`` calls, from numpy's C API for
    random (``numpy/random/c_distributions.pxd``), loaded as numpy's own
    cffi example does.  Takes a bit generator's ``ctypes.bit_generator``, a
    ``c_ssize_t`` count and a ``c_void_p`` to float64 memory.  That pointer
    does not keep the bit generator alive, so the caller must hold it.
    Bound on first use, like the generator subclass, as it loads
    ``numpy.random``; None if the symbol is missing.
    """
    from numpy.random import _generator

    # PyDLL keeps the GIL through the call, which is cheaper than releasing
    # and retaking it per path while the Monte Carlo runs serially; chunks
    # run on threads would need CDLL to draw concurrently.
    try:
        fill = ctypes.PyDLL(_generator.__file__).random_standard_normal_fill
    except (AttributeError, OSError):
        return None
    fill.restype = None
    return fill


def rekeyable_generator() -> np.random.Generator | None:
    """A Philox-backed generator for ``path_generator`` to re-key per path.

    ``_fill_paths``, the one draw routine, re-keys it per row with one
    96-byte write of the Philox state, at about a quarter of the cost of
    numpy's state setter, and fills each row it allocates through
    ``_normal_fill``'s one C call.
    None if the installed numpy's Philox struct does not have the layout the
    re-key relies on, or its C normal fill is missing: each row then gets a
    fresh generator from ``path_generator``, with the same draws.
    """
    if not _philox_layout_matches() or _normal_fill() is None:
        return None
    return _rekeyable_generator_class()()


def _require_seed(seed) -> int:
    """``seed`` as an int: TypeError unless integral, ValueError outside the keys."""
    seed = operator.index(seed)
    if not _SEED_MIN <= seed < _KEY_LIMIT:
        raise ValueError(_SEED_RANGE.format(seed))
    return seed


def path_generator(
    seed: int, path_index: int, generator: np.random.Generator | None = None
) -> np.random.Generator:
    """Philox generator for one path, keyed by (seed, path_index).

    ``seed`` must lie in [-2**63, 2**64) and ``path_index`` in [0, 2**64); a
    negative seed is taken modulo 2**64.  Wider values would be masked onto
    another key silently, so they raise ValueError.

    With ``generator`` None, a new generator is returned.  A generator from
    ``rekeyable_generator`` is instead re-keyed in place (zero counter, empty
    buffer) and returned; the draws are bit-identical either way.  The object
    is reused, so it must not be shared between threads, and draws meant for
    an earlier path must be taken before it is re-keyed.  Any other
    generator raises ValueError.  ``_fill_paths``, the one routine in this
    package that draws, takes each row's stream through this function.
    """
    if not _SEED_MIN <= seed < _KEY_LIMIT:
        raise ValueError(_SEED_RANGE.format(seed))
    if not 0 <= path_index < _KEY_LIMIT:
        raise ValueError(f"path_index must lie in [0, 2**64), got {path_index!r}")
    # The masks also refuse a float key with TypeError, as the template's
    # 64-bit word view does.
    seed_word = seed & _UINT64_MASK
    if generator is None:
        key = np.array([seed_word, path_index & _UINT64_MASK], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))
    try:
        template, live = generator._template, generator._live
    except AttributeError:
        raise ValueError("generator must come from rekeyable_generator()") from None
    # Key the template, then copy it onto the state in one write, so a key
    # refused here never reaches the live state.
    template[6] = seed_word
    template[7] = path_index
    live[:] = template
    return generator


def _fill_paths(seed: int, first_index: int, rows: int, n: int) -> np.ndarray:
    """A new (rows, n) float64 array whose row r holds the first n normals of
    stream (seed, first_index + r).  One row takes a fresh generator, as a
    re-keyable one costs about two.
    """
    out = np.empty((rows, n))
    gen = rekeyable_generator() if rows > 1 else None
    if gen is None:
        for r, row in enumerate(out):
            path_generator(seed, first_index + r).standard_normal(out=row)
        return out
    fill, bitgen = _normal_fill(), gen.bit_generator.ctypes.bit_generator
    draws, row = ctypes.c_ssize_t(n), ctypes.c_void_p()
    start, stride = out.ctypes.data, 8 * n
    for i, address in enumerate(range(start, start + stride * rows, stride), first_index):
        path_generator(seed, i, gen)
        row.value = address
        fill(bitgen, draws, row)
    return out


@dataclass(frozen=True)
class OuProcess:
    """Stationary OU parameters: sigma = sqrt(kT/C) volts, tau = RC seconds.

    ``stationary_sigma`` is 0 only when kT/C underflows (a huge C), in which
    case paths decay deterministically.
    """

    stationary_sigma: float
    correlation_time: float

    def __post_init__(self) -> None:
        require("stationary_sigma", self.stationary_sigma, "V", ge=0)
        require("correlation_time", self.correlation_time, "s", gt=0)

    @classmethod
    def from_stage(cls, stage: RcStage) -> "OuProcess":
        """Noise process of a stage's input node: sqrt(kT/C), RC."""
        return cls(
            stationary_sigma=stage.noise_sigma,
            correlation_time=stage.correlation_time,
        )

    def update_coefficients(self, dt: float) -> tuple[float, float]:
        """Exact one-step AR(1) coefficients (a, b) for step size dt.

        a = exp(-dt/tau); b = sigma*sqrt(1 - a**2) computed via expm1 so small
        steps do not lose precision to cancellation.  Every path generator in
        this module uses these same two numbers, which keeps scalar stepping,
        vectorized paths, and the Monte Carlo bit-identical up to the sign of
        a zero sample, which a vectorized path takes as ``lfilter`` does (see
        ``_python_recurse``).
        """
        require("dt", dt, "s", gt=0)
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
        table = np.empty((self.samples.size + 1, 2))
        table[0] = 0.0, self.v0
        # times() without its n-sized temporaries: a running sum of ones is
        # exactly k, so dt*k rounds as dt*arange(1, n + 1) does.
        times = table[1:, 0]
        np.cumsum(np.broadcast_to(1.0, times.shape), out=times)
        times *= self.dt
        table[1:, 1] = self.samples
        write_numeric_csv(path, ("t", "V"), table)


def _python_recurse(a: float, b: float, z: np.ndarray, v0: float) -> np.ndarray:
    # y[k] = a*y[k-1] + b*z[k], y[-1] = v0, with lfilter's bytes.  Both round
    # b*z[k], a*y[k-1] and their sum.  lfilter also adds z[k-1]*0.0 (its
    # zero-padded numerator) to a*y[k-1], which can set the sign of a zero
    # sample; this loop adds it to b*z[k], exactly, as one addend is a zero.
    terms = b * z
    terms[1:] += np.copysign(0.0, z[:-1])
    out = terms.tolist()
    y = float(v0)
    for k, s in enumerate(out):
        y = a * y + s
        out[k] = y
    return np.array(out)


def _recurse(a: float, b: float, z: np.ndarray, v0: float) -> np.ndarray:
    # Importing scipy.signal costs about 1 s and 70 MB of RSS, and lfilter
    # is about 20 times faster per sample than the Python loop.  So a process
    # runs at most _PYTHON_RECURSION_MAX samples through the loop (7-12 ms in
    # all, about 1 % of the import), each path that fits in what is left, and
    # the other paths through lfilter: a process that builds a short path or
    # a few never imports scipy.signal, and one that builds many pays at most
    # those milliseconds more than with lfilter alone.  The count is per
    # process because the import is; threads racing on it can overrun the
    # budget by a path each, but the bytes are the same either way.
    global _looped_samples
    if _looped_samples + z.size <= _PYTHON_RECURSION_MAX:
        _looped_samples += z.size
        return _python_recurse(a, b, z, v0)
    from scipy.signal import lfilter

    y, _ = lfilter([b], [1.0, -a], z, zi=np.array([a * v0]))
    return y


def _require_path_length(n: int) -> None:
    require("n", n, ge=1)
    if n > MAX_PATH_SAMPLES:
        raise ValueError(f"n={n!r} samples exceed the path limit of {MAX_PATH_SAMPLES}")


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
    seed = _require_seed(seed)
    _require_path_length(n)
    require("v0", v0, "V")
    a, b = process.update_coefficients(dt)
    z = _fill_paths(seed, path_index, 1, n)[0]
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
    seed = _require_seed(seed)
    _require_path_length(n)
    a, b = process.update_coefficients(dt)
    z = _fill_paths(seed, path_index, 1, n + 1)[0]
    v0 = process.stationary_sigma * z[0]
    return NoisePath(
        dt=dt, v0=v0, samples=_recurse(a, b, z[1:], v0), seed=seed, path_index=path_index
    )
