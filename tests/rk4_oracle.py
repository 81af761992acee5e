"""Reference two-phase RK4 transfer for an LC tank, one step loop per phase.

Integrates phase 1 (C1 rings into L) in (v_C1, i, e_loss) and phase 2 (L
rings into C2) in (v_C2, i, e_loss), each with its own rate function, from
the circuit equations only.  No code under test is imported, so it can check
bit for bit that the library's single ring-down loop, which runs phase 2 in
w = -v_C2, records the same waveform and efficiency.
"""

from __future__ import annotations

import math

import numpy as np


def _quarter_period(inductance: float, cap: float, alpha: float) -> float:
    return 0.5 * math.pi / math.sqrt(1.0 / (inductance * cap) - alpha**2)


def _rk4_step(rates, y, h):
    y0, y1, y2 = y
    a0, a1, a2 = rates(y)
    b0, b1, b2 = rates((y0 + 0.5 * h * a0, y1 + 0.5 * h * a1, y2 + 0.5 * h * a2))
    c0, c1, c2 = rates((y0 + 0.5 * h * b0, y1 + 0.5 * h * b1, y2 + 0.5 * h * b2))
    d0, d1, d2 = rates((y0 + h * c0, y1 + h * c1, y2 + h * c2))
    w = h / 6.0
    return (
        y0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
        y1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        y2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
    )


def two_phase_transfer(c1, c2, inductance, resistance, v0, dt=None):
    """Return (waveform, efficiency) of an underdamped tank's transfer.

    Each phase lasts a quarter damped period and is cut into equal steps of
    at most ``dt`` (default sqrt(L*min(C1, C2))/200).  Waveform rows are
    (t, v_c1, i_l, v_c2, e_loss).
    """
    if dt is None:
        dt = 0.5 * (math.sqrt(inductance * min(c1, c2)) / 100.0)
    alpha = resistance / (2.0 * inductance)
    t1 = _quarter_period(inductance, c1, alpha)
    t2 = _quarter_period(inductance, c2, alpha)

    def phase1_rates(y):
        v1, i, _ = y
        return (-i / c1, (v1 - resistance * i) / inductance, i * i * resistance)

    def phase2_rates(y):
        v2, i, _ = y
        return (i / c2, (-v2 - resistance * i) / inductance, i * i * resistance)

    state = (v0, 0.0, 0.0)
    rows = [(0.0, v0, 0.0, 0.0, 0.0)]
    n1 = max(1, math.ceil(t1 / dt))
    h1 = t1 / n1
    for k in range(n1):
        state = _rk4_step(phase1_rates, state, h1)
        rows.append(((k + 1) * h1, state[0], state[1], 0.0, state[2]))

    v1_residual, current, e_loss = state
    state = (0.0, current, e_loss)
    n2 = max(1, math.ceil(t2 / dt))
    h2 = t2 / n2
    for k in range(n2):
        state = _rk4_step(phase2_rates, state, h2)
        rows.append((t1 + (k + 1) * h2, v1_residual, state[1], state[0], state[2]))

    efficiency = (0.5 * c2 * state[0] ** 2) / (0.5 * c1 * v0**2)
    return np.array(rows), efficiency
