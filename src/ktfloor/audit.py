"""Full-cycle energy audit of a voltage-follower logic gate.

A follower gate copies its input onto an output node; claims of sub-kT
switching usually price only the internal "friction" of moving the switch and
leave out the energy burned charging and discharging the input capacitance.
This module totals both channels for one 0 -> 1 -> 0 cycle and compares the
result, and any externally claimed per-operation figure, against the error
floor the gate's own noise level implies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuit import RcStage
from .floors import instantaneous_error_prob, log_tail_probability
from .quantities import require

VERDICT_SUB_KT = "sub-kT"
VERDICT_AT_OR_ABOVE_KT = "at-or-above-kT"
VERDICT_BELOW_FLOOR = "below-floor"
VERDICT_AT_OR_ABOVE_FLOOR = "at-or-above-floor"
VERDICT_NOT_APPLICABLE = "not-applicable"
CLAIM_NEGLECTS = "neglects-input-charging"
CLAIM_CONSISTENT = "consistent"


@dataclass(frozen=True)
class FollowerGate:
    """A follower stage plus its per-transition internal friction loss.

    ``friction_energy_per_transition`` is the energy (joules) dissipated
    inside the switch mechanism each time the gate toggles, independent of the
    input-charging loss.  ``threshold_fraction`` places the logic decision
    threshold as a fraction of the swing; 0.5 is the symmetric choice.
    """

    stage: RcStage
    friction_energy_per_transition: float = 0.0
    threshold_fraction: float = 0.5

    def __post_init__(self) -> None:
        require(
            "friction_energy_per_transition",
            self.friction_energy_per_transition, "J", ge=0,
        )
        if not 0.0 < self.threshold_fraction < 1.0:
            raise ValueError(
                f"threshold_fraction must lie in (0, 1), got "
                f"{self.threshold_fraction!r}"
            )

    def cycle_energies(self) -> tuple[float, float, float]:
        """(friction, input charging, total) for one cycle, joules.

        Friction is charged once per transition (two per cycle); input
        charging costs C*U1**2 per cycle regardless of switch construction.
        """
        e_friction = 2.0 * self.friction_energy_per_transition
        e_input = self.stage.full_cycle_dissipation().total_dissipated
        return e_friction, e_input, e_friction + e_input


@dataclass(frozen=True)
class AuditReport:
    """Cycle energy accounting for one gate, all energies in joules.

    ``floor_short_kt``/``floor_short_joule`` are None when the gate has no
    working threshold (zero swing: epsilon is exactly 0.5 and no floor
    applies); ``verdict_total`` is then ``"not-applicable"``.

    The floor is minus the log tail at threshold/sigma, so it stays exact
    where ``epsilon_per_observation`` is subnormal or has underflowed to 0.0.
    """

    gate: FollowerGate
    e_friction_cycle: float
    e_input_cycle: float
    e_total_cycle: float
    epsilon_per_observation: float
    floor_short_joule: float | None
    floor_short_kt: float | None
    verdict_friction_only: str
    verdict_total: str

    @property
    def e_friction_cycle_kt(self) -> float:
        return self.gate.stage.env.joules_to_kt(self.e_friction_cycle)

    @property
    def e_input_cycle_kt(self) -> float:
        return self.gate.stage.env.joules_to_kt(self.e_input_cycle)

    @property
    def e_total_cycle_kt(self) -> float:
        return self.gate.stage.env.joules_to_kt(self.e_total_cycle)


def run_cycle(gate: FollowerGate) -> AuditReport:
    """Audit one full 0 -> 1 -> 0 cycle of the gate.

    Energies are :meth:`FollowerGate.cycle_energies`.  The error probability
    is one observation of the input node against the threshold at
    threshold_fraction*U1 with noise sigma = sqrt(kT/C).
    """
    env = gate.stage.env
    kt = env.thermal_energy()

    e_friction, e_input, e_total = gate.cycle_energies()
    sigma = gate.stage.noise_sigma
    threshold = gate.threshold_fraction * gate.stage.swing_voltage
    epsilon = instantaneous_error_prob(threshold, sigma)

    floor_joule = floor_kt = None
    verdict_total = VERDICT_NOT_APPLICABLE
    # At zero swing epsilon is 0.5, a fair coin, and no floor applies.
    if epsilon < 0.5:
        floor_kt = -log_tail_probability(threshold / sigma)
        floor_joule = env.kt_to_joules(floor_kt)
        verdict_total = (
            VERDICT_BELOW_FLOOR if e_total < floor_joule else VERDICT_AT_OR_ABOVE_FLOOR
        )

    verdict_friction = (
        VERDICT_SUB_KT
        if gate.friction_energy_per_transition < kt
        else VERDICT_AT_OR_ABOVE_KT
    )

    return AuditReport(
        gate=gate,
        e_friction_cycle=e_friction,
        e_input_cycle=e_input,
        e_total_cycle=e_total,
        epsilon_per_observation=epsilon,
        floor_short_joule=floor_joule,
        floor_short_kt=floor_kt,
        verdict_friction_only=verdict_friction,
        verdict_total=verdict_total,
    )


def audit_claim(gate: FollowerGate, claimed_energy_per_op: float) -> str:
    """Check a claimed per-operation energy against the full accounting.

    A claim below half the true cycle total (one cycle = two operations)
    while the input-charging channel is nonzero can only be made by leaving
    that channel out of the books: returns ``"neglects-input-charging"``.
    Anything at or above the honest per-operation figure is ``"consistent"``.
    """
    require("claimed_energy_per_op", claimed_energy_per_op, "J", ge=0)
    _, e_input, e_total = gate.cycle_energies()
    if claimed_energy_per_op < 0.5 * e_total and e_input > 0.0:
        return CLAIM_NEGLECTS
    return CLAIM_CONSISTENT
