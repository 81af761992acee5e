"""Quarter-cycle LC energy transfer between two capacitors and its break-even.

Instead of burning C*U1**2 per cycle in a switch resistance, the charge on C1
can be steered through an inductor: close a switch for a quarter period so the
energy moves into L (phase 1), then commutate onto C2 for another quarter
period (phase 2).  With series resistance R each phase runs an underdamped RLC
ring, so a fraction of the energy is still lost — and the two extra switches
doing the steering each cost control energy of their own, which is what kills
the scheme at logic-gate energy scales.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .quantities import require

# Pure-Python RK4 runs close to 10**6 steps per second, and a recorded
# waveform holds 40 bytes a step; the default step of a symmetric tank takes
# about 630.
MAX_RK4_STEPS = 1_000_000


def symmetric_tank_efficiency(quality_factor: float) -> float:
    """Closed-form transfer efficiency of a symmetric (C1 = C2) tank.

    With both phases at quality factor q the delivered fraction depends on q
    alone, so this is :meth:`TankCircuit.transfer_efficiency` of the unit tank
    L = C1 = C2 = 1, R = 1/q.  Approaches exp(-pi/q) for large q, is exactly
    1.0 at q = inf; requires q > 0.5 (underdamped).
    """
    if not quality_factor > 0.5:
        raise ValueError(
            f"quality factor must exceed 0.5 (underdamped), got {quality_factor!r}"
        )
    return TankCircuit(
        c1=1.0, c2=1.0, inductance=1.0,
        series_resistance=1.0 / quality_factor, initial_voltage=1.0,
    ).transfer_efficiency().efficiency


def require_switch_count(name: str, n_switch_events: int) -> None:
    """Refuse a switch count below 2 (naming it ``name``) or past the float range."""
    require(name, n_switch_events, ge=2)
    if n_switch_events > sys.float_info.max:
        raise ValueError(
            "n_switch_events is too large to convert to float (above 1.8e308)"
        )


def break_even_energy(
    e_switch_control: float, efficiency: float, n_switch_events: int = 2
) -> tuple[float, float]:
    """Switch overhead n_switch_events * e_switch_control and its break-even.

    Returns (overhead, overhead/efficiency) in the unit of e_switch_control.
    Raises ValueError for a negative energy, fewer than two events, an event
    count past the float range or a break-even that is not finite (as at
    efficiency 0).
    """
    require("e_switch_control", e_switch_control, ge=0)
    require_switch_count("n_switch_events", n_switch_events)
    overhead = n_switch_events * e_switch_control
    if not (efficiency > 0.0 and overhead / efficiency < math.inf):
        raise ValueError(
            f"break-even energy {overhead!r} / efficiency {efficiency!r} is not finite"
        )
    return overhead, overhead / efficiency


# Columns of a recorded waveform row, as TankCircuit.simulate_transfer builds it.
WAVEFORM_COLUMNS = ("t", "v_c1", "i_l", "v_c2", "e_loss")


@dataclass(frozen=True)
class TransferReport:
    """Outcome of one two-phase transfer.

    ``method`` records whether the numbers come from the closed form
    (``"closed-form"``) or the RK4 integration (``"rk4"``).  ``waveform`` is
    None unless the simulation recorded one; its columns are WAVEFORM_COLUMNS.
    """

    phase1_duration: float
    phase2_duration: float
    energy_initial: float
    energy_delivered: float
    efficiency: float
    method: str
    waveform: np.ndarray | None = None


@dataclass(frozen=True)
class BreakEven:
    """Switch-overhead accounting for one recycled cycle, joules."""

    net_saving: float
    break_even_energy: float
    efficiency: float
    overhead: float


@dataclass(frozen=True)
class TankCircuit:
    """Series RLC transfer path: C1 --switch-- L (R) --switch-- C2.

    ``series_resistance`` may be 0 (ideal tank).  Both phases must be
    underdamped: quality factor sqrt(L/C_i)/R > 0.5, otherwise the quarter
    period — and with it the whole scheme — is undefined.
    """

    c1: float
    c2: float
    inductance: float
    series_resistance: float
    initial_voltage: float

    def __post_init__(self) -> None:
        require("c1", self.c1, "F", gt=0)
        require("c2", self.c2, "F", gt=0)
        require("inductance", self.inductance, "H", gt=0)
        require("series_resistance", self.series_resistance, "ohm", ge=0)
        require("initial_voltage", self.initial_voltage, "V", gt=0)
        # Fail construction, not use: both phases must ring.
        for cap in (self.c1, self.c2):
            self._damped_frequency(cap)

    @property
    def alpha(self) -> float:
        """Damping rate R/(2L), 1/s."""
        return self.series_resistance / (2.0 * self.inductance)

    @property
    def quality_factors(self) -> tuple[float, float]:
        """(q1, q2) = sqrt(L/C_i)/R; infinite for a lossless tank."""
        if self.series_resistance == 0.0:
            return (math.inf, math.inf)
        return (
            math.sqrt(self.inductance / self.c1) / self.series_resistance,
            math.sqrt(self.inductance / self.c2) / self.series_resistance,
        )

    @property
    def energy_initial(self) -> float:
        """Energy parked on C1 before the transfer, C1*V0**2/2 joules.

        Raises ValueError, naming v0, when the energy is not finite.
        """
        try:
            energy = 0.5 * self.c1 * self.initial_voltage**2
            if math.isfinite(energy):
                return energy
        except OverflowError:
            pass
        raise ValueError(
            f"v0 {self.initial_voltage!r} V on C1={self.c1!r} F "
            "overflows the initial energy C1*V0**2/2"
        )

    def _damped_frequency(self, cap: float) -> float:
        lc = self.inductance * cap
        if lc == 0.0 or 1.0 / lc == math.inf:
            raise ValueError(f"L*C underflows for L={self.inductance!r} H, C={cap!r} F")
        w0_sq = 1.0 / lc
        wd_sq = w0_sq - self.alpha**2
        if not wd_sq > 0.0:
            raise ValueError(
                "transfer phase is not underdamped (quality factor <= 0.5) "
                f"for C={cap!r} F, L={self.inductance!r} H, "
                f"R={self.series_resistance!r} ohm"
            )
        return math.sqrt(wd_sq)

    def transfer_schedule(self) -> tuple[float, float]:
        """Switching instants (t1, t2): a quarter damped period per phase.

        t_i = (pi/2)/omega_d,i.  Damping shifts these above the lossless
        quarter period by ~1/(8 q**2) relative — about 1.3e-5 at q = 100.
        """
        return (
            0.5 * math.pi / self._damped_frequency(self.c1),
            0.5 * math.pi / self._damped_frequency(self.c2),
        )

    def transfer_efficiency(self) -> TransferReport:
        """Closed-form delivered fraction after both quarter-period phases.

        eta = exp(-2*alpha*(t1 + t2))
              / ((1 - alpha**2*L*C1) * (1 - alpha**2*L*C2)),

        the ring-down envelope at the two switching instants with the
        (alpha/omega_d)**2 quadrature remainders folded in.  Every factor is
        exactly 1.0 when R = 0, so a lossless tank reports efficiency 1.0
        bit-exactly.
        """
        t1, t2 = self.transfer_schedule()
        a2l = self.alpha**2 * self.inductance
        eta = math.exp(-2.0 * self.alpha * (t1 + t2)) / (
            (1.0 - a2l * self.c1) * (1.0 - a2l * self.c2)
        )
        e_init = self.energy_initial
        return TransferReport(
            phase1_duration=t1,
            phase2_duration=t2,
            energy_initial=e_init,
            energy_delivered=eta * e_init,
            efficiency=eta,
            method="closed-form",
        )

    def simulate_transfer(
        self, dt: float | None = None, record: bool = False
    ) -> TransferReport:
        """Integrate the two transfer phases with fixed-step RK4.

        ``dt`` must satisfy dt <= sqrt(L*min(C1, C2))/100 (a hundredth of the
        fastest natural period's radian time) or the run is refused; default
        is half that bound.  A dt that would take more than MAX_RK4_STEPS
        steps over both phases is refused too, before any step runs.  The
        resistive loss is integrated as a state component, so the waveform
        rows (t, v_c1, i_l, v_c2, e_loss) carry a complete energy ledger at
        every step.
        """
        dt_bound = math.sqrt(self.inductance * min(self.c1, self.c2)) / 100.0
        if dt is None:
            dt = 0.5 * dt_bound
        require("dt", dt, "s", gt=0)
        if dt > dt_bound:
            raise ValueError(
                f"dt={dt!r} s is too coarse for this tank; need "
                f"dt <= sqrt(L*min(C1,C2))/100 = {dt_bound!r} s"
            )
        e_init = self.energy_initial
        if e_init == 0.0:
            raise ValueError(
                f"v0 {self.initial_voltage!r} V on C1={self.c1!r} F underflows the "
                "initial energy C1*V0**2/2, so the RK4 efficiency is undefined"
            )
        t1, t2 = self.transfer_schedule()
        steps = t1 / dt + t2 / dt
        if not steps <= MAX_RK4_STEPS:
            raise ValueError(
                f"dt={dt!r} s needs {steps:.3g} RK4 steps over "
                f"t1 + t2 = {t1 + t2!r} s; the limit is {MAX_RK4_STEPS} steps"
            )
        resistance = self.series_resistance
        inductance = self.inductance
        rows = array("d", (0.0, self.initial_voltage, 0.0, 0.0, 0.0))

        def ring(v, i, e, cap, start, duration, row):
            n = max(1, math.ceil(duration / dt))
            h = duration / n
            for k in range(1, n + 1):
                v, i, e = _rk4_step(v, i, e, h, cap, resistance, inductance)
                if record:
                    rows.extend(row(start + k * h, v, i, e))
            return v, i, e

        # Phase 1: C1 rings into L.
        v1_residual, current, e_loss = ring(
            self.initial_voltage, 0.0, 0.0, self.c1, 0.0, t1,
            lambda t, v, i, e: (t, v, i, 0.0, e),
        )
        # Commutation: C1 drops out with its residual voltage; the inductor
        # current and accumulated loss carry over into phase 2.  Phase 2 runs
        # in w = -v_C2, where it has phase 1's equations with C2 for C1.
        # Round-to-nearest is symmetric in sign, so from w = -0.0 every w is
        # exactly -v_C2.
        w, _, _ = ring(
            -0.0, current, e_loss, self.c2, t1, t2,
            lambda t, v, i, e: (t, v1_residual, i, -v, e),
        )
        delivered = 0.5 * self.c2 * w**2
        return TransferReport(
            phase1_duration=t1,
            phase2_duration=t2,
            energy_initial=e_init,
            energy_delivered=delivered,
            efficiency=delivered / e_init,
            method="rk4",
            waveform=np.frombuffer(rows).reshape(-1, 5) if record else None,
        )

    def break_even(
        self, e_switch_control: float, n_switch_events: int = 2
    ) -> BreakEven:
        """Net saving of recycling once the steering switches are paid for.

        The tank returns efficiency*E_init but its own switches consume
        n_switch_events * e_switch_control of control energy (at minimum the
        two new switches the scheme adds).  Recycling only pays above
        break_even_energy = n*e_sw/efficiency.
        """
        eta = self.transfer_efficiency().efficiency
        overhead, energy = break_even_energy(e_switch_control, eta, n_switch_events)
        return BreakEven(
            net_saving=eta * self.energy_initial - overhead,
            break_even_energy=energy,
            efficiency=eta,
            overhead=overhead,
        )


def _rk4_step(v, i, e, h, cap, resistance, inductance):
    """One RK4 step of the ring (v, i, e)' = (-i/C, (v - R*i)/L, R*i**2).

    The rates are written out in the order of the per-phase rate functions
    in ``tests/rk4_oracle.py``, so every step rounds as the oracle's does.
    The loss rate reads no state component but i, so the stages skip e.
    """
    half = 0.5 * h
    a0 = -i / cap
    a1 = (v - resistance * i) / inductance
    a2 = i * i * resistance
    v_b = v + half * a0
    i_b = i + half * a1
    b0 = -i_b / cap
    b1 = (v_b - resistance * i_b) / inductance
    b2 = i_b * i_b * resistance
    v_c = v + half * b0
    i_c = i + half * b1
    c0 = -i_c / cap
    c1 = (v_c - resistance * i_c) / inductance
    c2 = i_c * i_c * resistance
    v_d = v + h * c0
    i_d = i + h * c1
    d0 = -i_d / cap
    d1 = (v_d - resistance * i_d) / inductance
    d2 = i_d * i_d * resistance
    w = h / 6.0
    return (
        v + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
        i + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        e + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
    )
