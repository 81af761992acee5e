"""One-variable parameter sweeps over the closed-form quantities.

A sweep walks one parameter over a linear or logarithmic grid, holds the rest
fixed, and tabulates every derived quantity that the supplied parameters
determine: noise sigma, cycle energies, instantaneous error probability,
dissipation floors, required swing, tank efficiency, and switch break-even.
Cells whose inputs are missing stay empty rather than guessed.

Six column forms derive every cell, a block of rows at a time: the swept
parameter is a float64 array of the block's values and every other input a
scalar, so a cell that does not depend on the swept value comes out a
scalar and is rendered once.  numpy runs only + - * / and sqrt, which are
correctly rounded, in the library's order of operations; every other
function (math's, ** and the library's scalar functions) runs in Python,
mapped over the rows.  The forms make none of the library's checks.
_check_row makes them for one row by building the library's objects.  It
runs on the grid's least and greatest values, which suffices because every
check is monotone in the swept value, and on every row in grid order only
when one of those is refused, so the first refused row raises its message.

Output is RFC-4180 CSV (CRLF line endings, numbers as %.8e) plus a JSON run
manifest with the inputs, seed, and tool version — and deliberately no
timestamps, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import RcStage
from .csvout import write_numeric_csv
from .floors import (
    ErrorSpec,
    floor_long,
    instantaneous_error_prob,
    multi_sample_error,
    observation_count,
    required_swing,
    tail_probability,
    tail_quantile,
)
from .quantities import BOLTZMANN_CONSTANT, ROOM_TEMPERATURE, PhysicalEnvironment
from .tank import break_even_energy, symmetric_tank_efficiency

# Sweepable physical parameters, in canonical column order.
PARAMETERS = ("U1", "C", "T", "epsilon", "t_o", "tau", "q", "e_switch")

# Fixed-only knobs (not sweepable, but allowed in "fixed").
_EXTRA_FIXED = ("n_switches",)

DEFAULT_SEED = 12345

# Every row is derived before anything is written, and held as packed doubles:
# 8 bytes for each cell that depends on the swept value, at most 11 a row (a
# T sweep with every other parameter fixed), so at most 88 MB at this bound.
MAX_POINTS = 1_000_000


class SweepConfigError(ValueError):
    """A sweep config that names what is wrong and where."""


def _is(value, types) -> bool:
    """Whether ``value`` is one of the JSON ``types``; a bool is never a number."""
    return isinstance(value, types) and not isinstance(value, bool)


# Each config field: its SweepSpec attribute, the types it takes, and their
# JSON name.  "fixed" and "seed" are optional.
_FIELDS = {
    "variable": ("variable", str, "a string"),
    "scale": ("scale", str, "a string"),
    "start": ("start", (int, float), "a number"),
    "stop": ("stop", (int, float), "a number"),
    "points": ("points", int, "an integer"),
    "output": ("output_path", str, "a string"),
    "fixed": ("fixed", dict, "an object"),
    "seed": ("seed", int, "an integer"),
}


@dataclass(frozen=True)
class SweepSpec:
    """Validated description of one sweep.

    ``variable`` is one of PARAMETERS; ``fixed`` maps other parameter names
    (plus optionally ``n_switches``) to finite values.  ``e_switch`` is
    denominated in kT — it is a technology figure, not a bath-dependent joule
    count.  Every field is checked here, so a spec built directly is checked
    as one read from a config; ``start`` and ``stop`` are stored as floats.
    """

    variable: str
    scale: str
    start: float
    stop: float
    points: int
    output_path: str
    fixed: dict = field(default_factory=dict)
    seed: int = DEFAULT_SEED

    @property
    def manifest_path(self) -> Path:
        """The manifest's path: the CSV's, with suffix ``.manifest.json``."""
        return Path(self.output_path).with_suffix(".manifest.json")

    def __post_init__(self) -> None:
        for name, (attribute, types, kind) in _FIELDS.items():
            value = getattr(self, attribute)
            if not _is(value, types):
                raise SweepConfigError(f"field {name!r}: must be {kind}, got {value!r}")
        # A copy, so the caller's dict cannot change a checked spec.
        object.__setattr__(self, "fixed", dict(self.fixed))
        if self.variable not in PARAMETERS:
            raise SweepConfigError(
                f"field 'variable': unknown parameter {self.variable!r}; "
                f"choose one of {', '.join(PARAMETERS)}"
            )
        if self.scale not in ("linear", "log"):
            raise SweepConfigError(
                f"field 'scale': must be 'linear' or 'log', got {self.scale!r}"
            )
        # An int compares exactly, so one past the float range is refused
        # here rather than overflowing in float().
        if not all(abs(v) <= sys.float_info.max for v in (self.start, self.stop)):
            raise SweepConfigError("fields 'start'/'stop': must be finite numbers")
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        if not self.start < self.stop:
            raise SweepConfigError(
                f"field 'start': must be < 'stop', got {self.start!r} >= {self.stop!r}"
            )
        if self.scale == "log" and not self.start > 0.0:
            raise SweepConfigError(
                f"field 'start': log scale needs positive endpoints, got {self.start!r}"
            )
        if not 2 <= self.points <= MAX_POINTS:
            raise SweepConfigError(
                f"field 'points': need 2 to {MAX_POINTS} grid points, "
                f"got {self.points!r}"
            )
        allowed = set(PARAMETERS) | set(_EXTRA_FIXED)
        for key, value in self.fixed.items():
            if key not in allowed:
                raise SweepConfigError(
                    f"field 'fixed': unknown parameter {key!r}; "
                    f"allowed: {', '.join(sorted(allowed))}"
                )
            if key == self.variable:
                raise SweepConfigError(
                    f"field 'fixed': {key!r} is the sweep variable and cannot "
                    "also be fixed"
                )
            if key in _EXTRA_FIXED:
                # A whole-number float such as 3.0 counts as the integer 3.
                whole = isinstance(value, float) and value.is_integer()
                if not (whole or _is(value, int)):
                    raise SweepConfigError(
                        f"field 'fixed': {key!r} must be an integer, got {value!r}"
                    )
            elif not _is(value, (int, float)):
                raise SweepConfigError(
                    f"field 'fixed': {key!r} must be a number, got {value!r}"
                )
            elif isinstance(value, float) and not math.isfinite(value):
                raise SweepConfigError(
                    f"field 'fixed': {key!r} must be finite, got {value!r}"
                )
            if isinstance(value, int) and abs(value) > sys.float_info.max:
                raise SweepConfigError(f"field 'fixed': {key!r} must fit in a float")
            if key in _EXTRA_FIXED and value < 2:
                raise SweepConfigError(
                    f"field 'fixed': {key!r} must be >= 2, got {value!r}"
                )
        if not self.output_path:
            raise SweepConfigError("field 'output': must be a non-empty path")

    @classmethod
    def from_config(cls, config: dict) -> "SweepSpec":
        """Build a spec from a parsed JSON config object."""
        if not isinstance(config, dict):
            raise SweepConfigError("config root must be a JSON object")
        for name in _FIELDS:
            if name not in config and name not in ("fixed", "seed"):
                raise SweepConfigError(f"field {name!r}: missing")
        for name in config:
            if name not in _FIELDS:
                raise SweepConfigError(f"field {name!r}: unexpected")
        return cls(**{_FIELDS[name][0]: value for name, value in config.items()})

    def grid(self) -> np.ndarray:
        """The swept values, from start to stop, both exact.

        Linear grids ascend.  np.geomspace can put a point of a log range a
        few ulps wide an ulp outside its endpoints, so such a grid need not.
        """
        if self.scale == "linear":
            return np.linspace(self.start, self.stop, self.points)
        return np.geomspace(self.start, self.stop, self.points)


def load_config(path) -> SweepSpec:
    """Read and validate a sweep config JSON file."""
    text = Path(path).read_text()
    config = json.loads(text)  # JSONDecodeError carries line/column
    return SweepSpec.from_config(config)


# Every CSV column: the parameters, then the derived cells, grouped by the
# column form below that writes them.
COLUMNS = PARAMETERS + (
    "thermal_energy_J", "sigma_V",
    "e1_J", "e1_kT", "cycle_J", "cycle_kT", "epsilon_inst",
    "multi_sample_epsilon", "floor_short_kT", "floor_short_J",
    "floor_long_kT", "floor_long_J",
    "required_U1_V", "required_E1_kT",
    "tank_efficiency", "break_even_kT", "break_even_J",
)


def _check_row(params: dict) -> None:
    """Make the library's checks on one row's parameters; derives no cell.

    The objects are built in the order the cells are derived, so a row that
    fails several checks raises the first one's message.
    """
    env = PhysicalEnvironment(temperature=params.get("T", ROOM_TEMPERATURE))
    cap, swing, epsilon = params.get("C"), params.get("U1"), params.get("epsilon")
    t_obs, tau = params.get("t_o"), params.get("tau")
    if cap is not None:
        # No derived cell depends on R, so the stage uses R = 1 ohm.
        stage = RcStage(cap, 1.0, 0.0 if swing is None else swing, env)
        if swing is not None:
            stage.charge_energy()
            instantaneous_error_prob(0.5 * swing, stage.noise_sigma)
    if epsilon is not None:
        spec = ErrorSpec(epsilon, 0.0 if t_obs is None else t_obs, tau)
        if t_obs is not None and tau is not None:
            floor_long(spec, env)
            _held_error(epsilon, t_obs, tau)
        if cap is not None:
            required_swing(epsilon, stage)
    if params.get("q") is not None:
        eta = symmetric_tank_efficiency(params["q"])
        if params.get("e_switch") is not None:
            break_even_energy(params["e_switch"], eta, int(params.get("n_switches", 2)))


def _held_error(epsilon: float, t_obs: float, tau: float) -> float:
    """The chance of an error in the window's once-per-tau observations."""
    return multi_sample_error(epsilon, observation_count(t_obs, tau))


# The column forms derive every cell of a block of rows at once (see the
# module docstring).  ``cells`` holds the parameters, the swept one as a
# float64 array of the block's values and the rest as given; a form writes
# each of its cells as an array where it depends on that array, else as a
# scalar.  numpy's own square, log, exp and log1p differ from Python's in
# the last bit for some doubles, so only + - * / and sqrt run in numpy, and
# every other function through _python.
def _python(function, *args):
    """``function`` of Python scalars, once per row of any array argument."""
    args = [a.tolist() if isinstance(a, np.ndarray) else a for a in args]
    size = next((len(a) for a in args if isinstance(a, list)), None)
    if size is None:
        return function(*args)
    columns = (a if isinstance(a, list) else repeat(a, size) for a in args)
    return np.fromiter(map(function, *columns), float, size)


def _thermal_columns(cells: dict) -> None:
    temperature = cells["T"]
    cells["thermal_energy_J"] = BOLTZMANN_CONSTANT * (
        ROOM_TEMPERATURE if temperature is None else temperature
    )


def _sigma_columns(cells: dict) -> None:
    if cells["C"] is not None:
        variance = cells["thermal_energy_J"] / cells["C"]
        # math.sqrt keeps a row-invariant cell a Python float.
        sqrt = np.sqrt if isinstance(variance, np.ndarray) else math.sqrt
        cells["sigma_V"] = sqrt(variance)


def _charge_columns(cells: dict) -> None:
    cap, swing, kt = cells["C"], cells["U1"], cells["thermal_energy_J"]
    if cap is not None and swing is not None:
        stored = 0.5 * cap * _python(operator.pow, swing, 2)
        cycle = stored + stored
        cells.update(e1_J=stored, e1_kT=stored / kt, cycle_J=cycle, cycle_kT=cycle / kt)
        cells["epsilon_inst"] = _python(tail_probability, 0.5 * swing / cells["sigma_V"])


def _floors_columns(cells: dict) -> None:
    epsilon, t_obs, tau = cells["epsilon"], cells["t_o"], cells["tau"]
    if epsilon is not None:
        kt = cells["thermal_energy_J"]
        short = -_python(math.log, epsilon)
        cells.update(floor_short_kT=short, floor_short_J=short * kt)
        if t_obs is not None and tau is not None:
            long_floor = short + _python(math.log, t_obs / tau)
            cells.update(floor_long_kT=long_floor, floor_long_J=long_floor * kt)
            cells["multi_sample_epsilon"] = _python(_held_error, epsilon, t_obs, tau)


def _required_swing_columns(cells: dict) -> None:
    epsilon, cap = cells["epsilon"], cells["C"]
    if epsilon is not None and cap is not None:
        swing = 2.0 * cells["sigma_V"] * _python(tail_quantile, epsilon)
        energy = 0.5 * cap * _python(operator.pow, swing, 2)
        cells.update(required_U1_V=swing, required_E1_kT=energy / cells["thermal_energy_J"])


def _tank_columns(cells: dict) -> None:
    quality, e_switch_kt = cells["q"], cells["e_switch"]
    if quality is not None:
        eta = cells["tank_efficiency"] = _python(symmetric_tank_efficiency, quality)
        if e_switch_kt is not None:
            break_even_kt = int(cells.get("n_switches", 2)) * e_switch_kt / eta
            cells["break_even_kT"] = break_even_kt
            cells["break_even_J"] = break_even_kt * cells["thermal_energy_J"]


_FORMS = (
    _thermal_columns, _sigma_columns, _charge_columns,
    _floors_columns, _required_swing_columns, _tank_columns,
)

# Rows per block of the column forms: their arrays and mapped floats take a
# few hundred kB whatever the grid's size.
_BLOCK = 4096


def _check_grid(spec: SweepSpec, grid: np.ndarray) -> None:
    """Raise the first refused row's message, if the library refuses a row.

    Every check is monotone in the swept value (a bound on it, or on a
    quantity monotone in it, such as sigma in C or t_o/tau in t_o), so a
    grid whose least and greatest values pass has no refused row.  Only
    when one of those is refused are the rows checked in grid order.
    """
    try:
        for value in (grid.min(), grid.max()):
            _check_row({**spec.fixed, spec.variable: value.item()})
    except ValueError:
        for value in grid.tolist():
            _check_row({**spec.fixed, spec.variable: value})
        raise


def _columns(spec: SweepSpec, values: np.ndarray) -> dict:
    """Every cell of the rows whose swept values are ``values``."""
    cells = dict.fromkeys(COLUMNS)
    cells.update(spec.fixed)
    cells[spec.variable] = values
    with np.errstate(all="ignore"):
        for form in _FORMS:
            form(cells)
    return cells


def _derive(spec: SweepSpec) -> tuple[np.ndarray, dict]:
    """The cells that vary with the swept value, packed, and the other cells.

    A cell varies exactly when its form gives an array.  The first refused
    row raises its message before any cell is derived.
    """
    grid = spec.grid()
    _check_grid(spec, grid)
    first = _columns(spec, grid[:_BLOCK])
    varying = [name for name in COLUMNS if isinstance(first[name], np.ndarray)]
    table = np.empty((len(grid), len(varying)))
    for start in range(0, len(grid), _BLOCK):
        cells = _columns(spec, grid[start:start + _BLOCK]) if start else first
        for j, name in enumerate(varying):
            table[start:start + _BLOCK, j] = cells[name]
    return table, {name: first[name] for name in COLUMNS if name not in varying}


def compute_rows(spec: SweepSpec) -> list[dict]:
    """Evaluate the whole grid; raises before anything is written.

    The rows hold run_sweep's cells as Python floats, with parameters given
    as ints kept as given.  Every row carries the full COLUMNS schema;
    quantities the given parameters do not determine are None.
    """
    table, fixed = _derive(spec)
    varying = [name for name in COLUMNS if name not in fixed]
    template = dict.fromkeys(COLUMNS)
    template.update(fixed)
    return [{**template, **dict(zip(varying, row))} for row in table.tolist()]


def run_sweep(spec: SweepSpec) -> tuple[Path, Path]:
    """Execute the sweep; returns (csv_path, manifest_path).

    The CSV has one row per grid point, in the order of SweepSpec.grid; the
    manifest echoes the configuration and tool version.  Reruns of the same
    spec produce byte-identical files.  Every row is checked and derived
    before any file is opened, so a refused row writes nothing.

    The cells that vary with the swept value go to the writer as one packed
    table; it renders the other cells once.
    """
    table, fixed = _derive(spec)
    csv_path = Path(spec.output_path)
    manifest_path = spec.manifest_path
    write_numeric_csv(csv_path, COLUMNS, table, fixed)

    manifest = {
        "tool": "ktfloor",
        "version": __version__,
        "command": "sweep",
        "variable": spec.variable,
        "scale": spec.scale,
        "start": spec.start,
        "stop": spec.stop,
        "points": spec.points,
        "fixed": dict(sorted(spec.fixed.items())),
        "seed": spec.seed,
        "rows": len(table),
        "columns": list(COLUMNS),
        "output_csv": csv_path.name,
    }
    with open(manifest_path, "w", newline="") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True))
        fh.write("\n")
    return csv_path, manifest_path
