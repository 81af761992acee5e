"""Thermal environment and energy-unit conversions.

Everything downstream prices energies in units of kT, so the conversion has to
be exact and boring: one multiplication, one division, no hidden unit systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Exact SI defining value, J/K.
BOLTZMANN_CONSTANT = 1.380649e-23

# Default bath temperature for the CLI, K.
ROOM_TEMPERATURE = 300.0


def require(name, value, unit="", *, gt=None, ge=None, finite=True):
    """Return ``value``, or raise ValueError naming ``name`` if it is out of range.

    ``gt``/``ge`` is a strict/inclusive lower bound.  It is checked first, as
    ``not value > gt``, so NaN and -inf get the bound's message; then, with
    ``finite``, any other non-finite value gets "<name> must be finite".  An
    int compares with -inf and inf exactly, so one too large for a float is
    finite and never converted.
    """
    if gt is not None and not value > gt:
        op, bound = ">", gt
    elif ge is not None and not value >= ge:
        op, bound = ">=", ge
    elif finite and not -math.inf < value < math.inf:
        raise ValueError(f"{name} must be finite, got {value!r}")
    else:
        return value
    raise ValueError(f"{name} must be {op} {f'{bound} {unit}'.rstrip()}, got {value!r}")


@dataclass(frozen=True)
class PhysicalEnvironment:
    """Thermal bath shared by every circuit calculation.

    ``temperature`` is in kelvin.  It must give a positive, finite kT, so
    zero, negative and non-finite temperatures are refused, and so is one so
    small that kT underflows to 0 J.  Instances are frozen and safe to share
    across threads.
    """

    temperature: float = ROOM_TEMPERATURE

    def __post_init__(self) -> None:
        if not 0.0 < self.thermal_energy() < math.inf:
            raise ValueError(
                "temperature must be finite and give kT > 0 J, "
                f"got {self.temperature!r} K"
            )

    def thermal_energy(self) -> float:
        """k_B * T in joules."""
        return BOLTZMANN_CONSTANT * self.temperature

    def kt_to_joules(self, energy_kt: float) -> float:
        """Convert an energy expressed in kT units to joules."""
        return energy_kt * self.thermal_energy()

    def joules_to_kt(self, energy_joule: float) -> float:
        """Convert an energy in joules to kT units."""
        return energy_joule / self.thermal_energy()
