"""One-variable parameter sweeps over the closed-form quantities.

A sweep walks one parameter over a linear or logarithmic grid, holds the rest
fixed, and tabulates every derived quantity that the supplied parameters
determine: noise sigma, cycle energies, instantaneous error probability,
dissipation floors, required swing, tank efficiency, and switch break-even.
Cells whose inputs are missing stay empty rather than guessed.

Two paths derive the cells, with the same bits.  compute_rows, the
reference, runs the library's scalar functions row by row; after row 0 it
re-runs only the groups that read the swept variable.  run_sweep derives the
first and last rows that way, so the library makes its checks there, and
then every varying cell a column at a time, a block of rows per pass.  The
rule for the columns: numpy only for + - * / and sqrt, which are correctly
rounded, applied in the library's order; Python for every other function
(math's, ** and the library's scalar functions), mapped over the rows.  A
sweep whose first or last row is refused, or that has a cell that is not
finite, takes the row loop, which raises the first refused row's message.

Output is RFC-4180 CSV (CRLF line endings, numbers as %.8e) plus a JSON run
manifest with the inputs, seed, and tool version — and deliberately no
timestamps, so identical configs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .circuit import RcStage
from .csvout import write_numeric_csv
from .floors import (
    ErrorSpec,
    floor_long,
    floor_short,
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
# 8 bytes for each cell that varies, at most 18 a row (a T sweep), so at most
# 144 MB at this bound.
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
        """The swept values, ascending, endpoints exact."""
        if self.scale == "linear":
            return np.linspace(self.start, self.stop, self.points)
        return np.geomspace(self.start, self.stop, self.points)


def load_config(path) -> SweepSpec:
    """Read and validate a sweep config JSON file."""
    text = Path(path).read_text()
    config = json.loads(text)  # JSONDecodeError carries line/column
    return SweepSpec.from_config(config)


# Each group derives its cells from the parameters it reads and from cells of
# the groups before it; every group reads T through the shared environment.
def _thermal(params: dict, env: PhysicalEnvironment, row: dict) -> None:
    row["thermal_energy_J"] = env.thermal_energy()


# No derived cell depends on R, so the row's stage uses R = 1 ohm.  _sigma
# builds it, and the groups after it that read C take it from params rather
# than validating C again.
def _sigma(params: dict, env: PhysicalEnvironment, row: dict) -> None:
    cap = params.get("C")
    if cap is not None:
        stage = params["stage"] = RcStage(cap, 1.0, params.get("U1", 0.0), env)
        row["sigma_V"] = stage.noise_sigma


def _charge(params: dict, env: PhysicalEnvironment, row: dict) -> None:
    swing = params.get("U1")
    if "C" in params and swing is not None:
        ledger = params["stage"].full_cycle_dissipation()
        row["e1_J"] = ledger.stored_after_charge
        row["e1_kT"] = env.joules_to_kt(ledger.stored_after_charge)
        row["cycle_J"] = ledger.total_dissipated
        row["cycle_kT"] = env.joules_to_kt(ledger.total_dissipated)
        row["epsilon_inst"] = instantaneous_error_prob(0.5 * swing, row["sigma_V"])


def _floors(params: dict, env: PhysicalEnvironment, row: dict) -> None:
    epsilon = params.get("epsilon")
    t_obs = params.get("t_o")
    tau = params.get("tau")
    if epsilon is not None:
        spec = ErrorSpec(
            epsilon=epsilon,
            observation_time=t_obs if t_obs is not None else 0.0,
            correlation_time=tau,
        )
        short = floor_short(spec, env)
        row["floor_short_kT"] = short.floor_kt
        row["floor_short_J"] = short.floor_joule
        if t_obs is not None and tau is not None:
            long_floor = floor_long(spec, env)
            row["floor_long_kT"] = long_floor.floor_kt
            row["floor_long_J"] = long_floor.floor_joule
            row["multi_sample_epsilon"] = _held_error(epsilon, t_obs, tau)


def _held_error(epsilon: float, t_obs: float, tau: float) -> float:
    """The chance of an error in the window's once-per-tau observations."""
    return multi_sample_error(epsilon, observation_count(t_obs, tau))


def _required_swing(params: dict, env: PhysicalEnvironment, row: dict) -> None:
    epsilon = params.get("epsilon")
    if epsilon is not None and "C" in params:
        need = required_swing(epsilon, params["stage"])
        row["required_U1_V"] = need.swing_voltage
        row["required_E1_kT"] = need.energy_kt


def _tank(params: dict, env: PhysicalEnvironment, row: dict) -> None:
    quality = params.get("q")
    if quality is not None:
        eta = symmetric_tank_efficiency(quality)
        row["tank_efficiency"] = eta
        e_switch_kt = params.get("e_switch")
        if e_switch_kt is not None:
            _, break_even_kt = break_even_energy(
                e_switch_kt, eta, int(params.get("n_switches", 2))
            )
            row["break_even_kT"] = break_even_kt
            row["break_even_J"] = env.kt_to_joules(break_even_kt)


# (parameters read, derivation, cells written), in derivation order.  A row
# differs from the row before only in the swept parameter and in the cells
# of the groups that read it, so only those groups run again.
_GROUPS = (
    ({"T"}, _thermal, ("thermal_energy_J",)),
    ({"T", "C", "U1"}, _sigma, ("sigma_V",)),
    ({"T", "C", "U1"}, _charge, (
        "e1_J", "e1_kT", "cycle_J", "cycle_kT", "epsilon_inst",
    )),
    ({"T", "epsilon", "t_o", "tau"}, _floors, (
        "multi_sample_epsilon", "floor_short_kT", "floor_short_J",
        "floor_long_kT", "floor_long_J",
    )),
    ({"T", "epsilon", "C"}, _required_swing, ("required_U1_V", "required_E1_kT")),
    ({"T", "q", "e_switch", "n_switches"}, _tank, (
        "tank_efficiency", "break_even_kT", "break_even_J",
    )),
)

# Every CSV column: the parameters, then each group's cells.
COLUMNS = PARAMETERS + tuple(cell for _, _, cells in _GROUPS for cell in cells)


# The column forms of the groups, run on a block of rows at once (see the
# module docstring).  ``cells`` holds row 0 with the swept parameter's cell
# replaced by a float64 array of the block's values; every other input stays
# a scalar.  A form writes each of its cells as an array where it depends on
# that array, else as a scalar.  numpy's own square, log, exp and log1p
# differ from Python's in the last bit for some doubles, so only + - * / and
# sqrt run in numpy, and every other function through _python.
def _python(function, *args):
    """``function`` of Python scalars, once per row of any array argument."""
    args = [a.tolist() if isinstance(a, np.ndarray) else a for a in args]
    size = next((len(a) for a in args if isinstance(a, list)), None)
    if size is None:
        return function(*args)
    columns = (a if isinstance(a, list) else repeat(a, size) for a in args)
    return np.fromiter(map(function, *columns), float, size)


def _thermal_columns(cells: dict) -> None:
    cells["thermal_energy_J"] = BOLTZMANN_CONSTANT * cells["T"]


def _sigma_columns(cells: dict) -> None:
    if cells["C"] is not None:
        cells["sigma_V"] = np.sqrt(cells["thermal_energy_J"] / cells["C"])


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
            break_even_kt = cells["n_switches"] * e_switch_kt / eta
            cells["break_even_kT"] = break_even_kt
            cells["break_even_J"] = break_even_kt * cells["thermal_energy_J"]


_COLUMN_FORMS = {
    _thermal: _thermal_columns,
    _sigma: _sigma_columns,
    _charge: _charge_columns,
    _floors: _floors_columns,
    _required_swing: _required_swing_columns,
    _tank: _tank_columns,
}

# Rows per block of the column forms: their arrays and mapped floats take a
# few hundred kB whatever the grid's size.
_BLOCK = 4096


def _derive_rows(spec: SweepSpec, values):
    """Yield one row per swept value: the same dict, updated in place.

    Row 0 runs every group; each later row re-runs only the groups that read
    the swept variable, and the cells they do not write keep their values.
    """
    params = dict(spec.fixed)
    row = dict.fromkeys(COLUMNS)
    row.update((name, params.get(name)) for name in PARAMETERS)
    groups = [derive for _, derive, _ in _GROUPS]
    rerun = [derive for reads, derive, _ in _GROUPS if spec.variable in reads]
    env = None
    for value in values:
        params[spec.variable] = row[spec.variable] = value
        if env is None or spec.variable == "T":
            env = PhysicalEnvironment(temperature=params.get("T", ROOM_TEMPERATURE))
        for derive in groups:
            derive(params, env, row)
        yield row
        groups = rerun


def compute_rows(spec: SweepSpec) -> list[dict]:
    """Evaluate the whole grid; raises before anything is written.

    Every row carries the full COLUMNS schema; quantities the given
    parameters do not determine are None.
    """
    return [dict(row) for row in _derive_rows(spec, spec.grid().tolist())]


def _split_row(spec: SweepSpec, first: dict) -> tuple[list[str], dict]:
    """The columns whose cells may differ from row 0's, and row 0's other cells.

    The cells that may vary are the swept variable's and those of the groups
    that read it.  Which cells are empty depends only on which parameters are
    given, so a cell empty in row 0 is empty in every row and is not varying.
    """
    may_vary = {spec.variable}.union(
        *(cells for reads, _, cells in _GROUPS if spec.variable in reads)
    )
    varying = [name for name in COLUMNS if name in may_vary and first[name] is not None]
    return varying, {name: first[name] for name in COLUMNS if name not in varying}


def _derive_packed_rows(spec: SweepSpec, grid: np.ndarray) -> tuple[np.ndarray, dict]:
    """The varying cells of every row, derived row by row, and the fixed cells.

    The first row the library refuses raises its own message.
    """
    rows = _derive_rows(spec, grid.tolist())
    first = next(rows)
    varying, fixed = _split_row(spec, first)
    cells = array("d")
    for row in chain([first], rows):
        cells.extend(map(row.__getitem__, varying))
    return np.frombuffer(cells).reshape(-1, len(varying)), fixed


def _derive_columns(spec: SweepSpec, grid: np.ndarray) -> tuple[np.ndarray, dict] | None:
    """The varying cells of every row, derived a column at a time, and the fixed cells.

    Returns None where only the row loop can tell: when the library refuses
    the first or the last row, or when a varying cell is not finite, which
    an overflow check may refuse.  The column forms make none of the
    library's checks.  They need none: every check is monotone in the swept
    value (a bound on it, or on a quantity monotone in it, such as sigma in
    C or t_o/tau in t_o), so a grid whose two endpoints pass has no refused
    row.  geomspace can put an interior point an ulp outside a narrow
    range's endpoints, so such a grid takes the row loop too.
    """
    if grid.min() < grid[0] or grid.max() > grid[-1]:
        return None
    try:
        first, _ = [dict(row) for row in _derive_rows(spec, grid[[0, -1]].tolist())]
    except ValueError:
        return None
    varying, fixed = _split_row(spec, first)
    forms = [_COLUMN_FORMS[derive] for reads, derive, _ in _GROUPS if spec.variable in reads]
    n_switches = int(spec.fixed.get("n_switches", 2))
    table = np.empty((len(grid), len(varying)))
    with np.errstate(all="ignore"):
        for start in range(0, len(grid), _BLOCK):
            cells = dict(first, n_switches=n_switches)
            cells[spec.variable] = grid[start:start + _BLOCK]
            for form in forms:
                form(cells)
            block = table[start:start + _BLOCK]
            for j, name in enumerate(varying):
                block[:, j] = cells[name]
            if not np.isfinite(block).all():
                return None
    return table, fixed


def run_sweep(spec: SweepSpec) -> tuple[Path, Path]:
    """Execute the sweep; returns (csv_path, manifest_path).

    The CSV has one row per grid point, ordered by the swept value ascending;
    the manifest echoes the configuration and tool version.  Reruns of the
    same spec produce byte-identical files.  Every row is derived before any
    file is opened, so a row that fails writes nothing.

    The varying cells are derived a column at a time where _derive_columns
    can vouch for them, else by compute_rows' row loop; the writer renders
    the other cells once, from row 0.
    """
    grid = spec.grid()
    table, fixed = _derive_columns(spec, grid) or _derive_packed_rows(spec, grid)
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
