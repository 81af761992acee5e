"""Energetics of a switched RC input stage.

Charging an ideal capacitor C from 0 to U1 through a series resistance stores
C*U1**2/2 on the capacitor and dissipates exactly the same amount in the
resistor — independent of R, which only sets how fast the loss happens.
Discharging back to 0 dumps the stored half into the resistance as well, so a
full 0 -> 1 -> 0 logic cycle costs C*U1**2 no matter how the switch is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quantities import PhysicalEnvironment, _count_text, require

# Grid points of integrated_charge_dissipation, 8 MB per float64 array; the
# default grid has 20001.
MAX_QUADRATURE_POINTS = 1_000_000


@dataclass(frozen=True)
class RcStage:
    """Gate input stage: capacitance C, switch on-resistance R, swing U1.

    ``resistance`` must be strictly positive; the R -> 0 limit is singular
    (infinite instantaneous power, zero correlation time) even though the
    dissipated energy is R-independent for every R > 0.  All three must be
    finite.
    """

    capacitance: float
    resistance: float
    swing_voltage: float
    env: PhysicalEnvironment

    def __post_init__(self) -> None:
        require("capacitance", self.capacitance, "F", gt=0)
        require("resistance", self.resistance, "ohm", gt=0)
        require("swing_voltage", self.swing_voltage, "V", ge=0)

    @property
    def correlation_time(self) -> float:
        """RC time constant in seconds."""
        return self.resistance * self.capacitance

    @property
    def noise_sigma(self) -> float:
        """Thermal noise on the node, sqrt(kT/C) volts (equipartition)."""
        return math.sqrt(self.env.thermal_energy() / self.capacitance)

    def charge_energy(self) -> float:
        """Energy stored on the capacitor at full swing: C*U1**2/2, joules.

        Raises ValueError, naming the swing, when the energy is not finite.
        """
        try:
            energy = 0.5 * self.capacitance * self.swing_voltage**2
            if math.isfinite(energy):
                return energy
        except OverflowError:
            pass
        raise ValueError(
            f"swing {self.swing_voltage!r} V on C={self.capacitance!r} F "
            "overflows the charge energy C*U1**2/2"
        )

    def step_charge_dissipation(self) -> float:
        """Heat dumped in the resistance while charging 0 -> U1, joules.

        Equal to the stored energy for any positive R: the source supplies
        C*U1**2, half of which ends up on the capacitor.
        """
        return self.charge_energy()

    def full_cycle_dissipation(self) -> "CycleLedger":
        """Energy ledger for one complete 0 -> 1 -> 0 cycle."""
        stored = self.charge_energy()
        return CycleLedger(
            stored_after_charge=stored,
            dissipated_on_charge=stored,
            dissipated_on_discharge=stored,
            total_dissipated=stored + stored,
        )

    def transient_power(self, t):
        """Capacitor voltage and resistor power during the charging step.

        ``t`` is seconds since switch closure, scalar or array, all entries
        >= 0 (NaN is refused).  Returns ``(v, p)`` with
        v = U1*(1 - exp(-t/RC)) and p = (U1 - v)**2 / R.
        """
        t = np.asarray(t, dtype=float)
        if not np.all(t >= 0.0):
            raise ValueError("transient time must be >= 0 s")
        v = self.swing_voltage * (-np.expm1(-t / self.correlation_time))
        p = (self.swing_voltage - v) ** 2 / self.resistance
        return v, p


@dataclass(frozen=True)
class CycleLedger:
    """Where the energy of one 0 -> 1 -> 0 cycle went, all joules."""

    stored_after_charge: float
    dissipated_on_charge: float
    dissipated_on_discharge: float
    total_dissipated: float


def integrated_charge_dissipation(
    stage: RcStage,
    step_fraction: float = 1e-3,
    horizon: float = 20.0,
) -> float:
    """Trapezoid integral of the resistor power over the charging transient.

    Cross-check for the closed-form step dissipation: integrates
    (U1 - v(t))**2 / R on a grid of spacing ``step_fraction * RC`` out to
    ``horizon`` time constants.  The truncated tail carries a fraction
    exp(-2*horizon) of the energy (~4e-18 at the default horizon), far below
    the trapezoid error itself.  A grid of more than MAX_QUADRATURE_POINTS
    points raises ValueError before it is allocated.
    """
    require("step_fraction", step_fraction, gt=0)
    require("horizon", horizon, gt=0)
    intervals = horizon / step_fraction
    points = round(intervals) + 1 if intervals < math.inf else intervals
    if not points <= MAX_QUADRATURE_POINTS:
        raise ValueError(
            f"horizon {horizon!r} / step_fraction {step_fraction!r} needs "
            f"{_count_text(points)} grid points; the limit is {MAX_QUADRATURE_POINTS}"
        )
    tau = stage.correlation_time
    t = np.linspace(0.0, horizon * tau, points)
    _, p = stage.transient_power(t)
    return float(np.trapezoid(p, t))
