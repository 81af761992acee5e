"""Reference sweep rows, derived one row at a time from the closed forms.

Each row is plain Python on that row's parameters, in the library's order of
operations: kT = k_B*T, sigma = sqrt(kT/C), E1 = C*U1**2/2 and its cycle,
the normal tail erfc(x/sqrt(2))/2 and its inverse by statistics.NormalDist,
the floors -ln(epsilon) and ln(t_o/tau), the multi-sample error through
expm1/log1p, and the closed-form efficiency of the unit tank.  No code under
test is imported, so it can check bit for bit that the library's column
forms, which derive a block of rows at once, give every cell the library's
scalar functions would.  It makes no checks: give it rows the library
accepts.
"""

from __future__ import annotations

import math
from statistics import NormalDist

BOLTZMANN_CONSTANT = 1.380649e-23
ROOM_TEMPERATURE = 300.0

PARAMETERS = ("U1", "C", "T", "epsilon", "t_o", "tau", "q", "e_switch")
COLUMNS = PARAMETERS + (
    "thermal_energy_J", "sigma_V",
    "e1_J", "e1_kT", "cycle_J", "cycle_kT", "epsilon_inst",
    "multi_sample_epsilon", "floor_short_kT", "floor_short_J",
    "floor_long_kT", "floor_long_J",
    "required_U1_V", "required_E1_kT",
    "tank_efficiency", "break_even_kT", "break_even_J",
)


def _tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _observations(t_obs, tau):
    """floor(t_o/tau), taking a quotient within 1e-9 relative of an integer as it."""
    quotient = t_obs / tau
    nearest = round(quotient)
    if abs(quotient - nearest) <= 1e-9 * max(1.0, abs(quotient)):
        return int(nearest)
    return int(math.floor(quotient))


def _unit_tank_efficiency(quality):
    """Delivered fraction of the tank L = C1 = C2 = 1, R = 1/q.

    The ring-down envelope after two quarter damped periods, over the
    (alpha/omega_d)**2 remainder of each phase.
    """
    alpha = 1.0 / quality / 2.0
    remainder = 1.0 - alpha**2
    quarter = 0.5 * math.pi / math.sqrt(remainder)
    return math.exp(-2.0 * alpha * (quarter + quarter)) / (remainder * remainder)


def sweep_row(params):
    """Every cell of one row; cells the parameters do not determine are None."""
    row = dict.fromkeys(COLUMNS)
    row.update((name, params.get(name)) for name in PARAMETERS)
    cap, swing, epsilon = params.get("C"), params.get("U1"), params.get("epsilon")
    t_obs, tau = params.get("t_o"), params.get("tau")
    quality, e_switch = params.get("q"), params.get("e_switch")
    kt = row["thermal_energy_J"] = BOLTZMANN_CONSTANT * params.get("T", ROOM_TEMPERATURE)
    if cap is not None:
        sigma = row["sigma_V"] = math.sqrt(kt / cap)
        if swing is not None:
            stored = 0.5 * cap * swing**2
            cycle = stored + stored
            row.update(e1_J=stored, e1_kT=stored / kt, cycle_J=cycle, cycle_kT=cycle / kt)
            row["epsilon_inst"] = _tail(0.5 * swing / sigma)
    if epsilon is not None:
        short = -math.log(epsilon)
        row.update(floor_short_kT=short, floor_short_J=short * kt)
        if t_obs is not None and tau is not None:
            long_floor = short + math.log(t_obs / tau)
            row.update(floor_long_kT=long_floor, floor_long_J=long_floor * kt)
            row["multi_sample_epsilon"] = -math.expm1(
                _observations(t_obs, tau) * math.log1p(-epsilon)
            )
        if cap is not None:
            need = 2.0 * sigma * (0.0 - NormalDist().inv_cdf(epsilon))
            row.update(required_U1_V=need, required_E1_kT=0.5 * cap * need**2 / kt)
    if quality is not None:
        eta = row["tank_efficiency"] = _unit_tank_efficiency(quality)
        if e_switch is not None:
            break_even = int(params.get("n_switches", 2)) * e_switch / eta
            row.update(break_even_kT=break_even, break_even_J=break_even * kt)
    return row


def sweep_rows(variable, values, fixed):
    """One row per swept value, the other parameters taken from ``fixed``."""
    return [sweep_row({**fixed, variable: value}) for value in values]
