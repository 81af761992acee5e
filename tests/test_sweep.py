"""Sweep configs, derived columns, and reproducible CSV/manifest output."""

import csv
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sweep_oracle
from conftest import traced_peak
from ktfloor import RcStage, SweepConfigError, SweepSpec, run_sweep, sweep
from ktfloor.sweep import COLUMNS, MAX_POINTS, PARAMETERS, compute_rows
from test_golden import VARIABLE_SWEEPS


def base_config(tmp_path, **overrides):
    config = {
        "variable": "epsilon",
        "scale": "log",
        "start": 1e-30,
        "stop": 1e-3,
        "points": 7,
        "fixed": {"C": 1e-15, "tau": 1e-9, "t_o": 1e-3},
        "seed": 99,
        "output": str(tmp_path / "out.csv"),
    }
    config.update(overrides)
    return config


def packed_rows(spec):
    """run_sweep's cells as rows, from the packed table and constant cells it
    hands the writer."""
    handed = {}

    def capture(path, columns, table, fixed):
        handed.update(table=table, fixed=fixed)

    with mock.patch.object(sweep, "write_numeric_csv", capture):
        run_sweep(spec)
    fixed = handed["fixed"]
    varying = [name for name in COLUMNS if name not in fixed]
    return [dict(fixed, **dict(zip(varying, row))) for row in handed["table"].tolist()]


def oracle_rows(spec):
    return sweep_oracle.sweep_rows(spec.variable, spec.grid().tolist(), spec.fixed)


def assert_same_bits(rows, expected):
    """Every cell of ``rows`` is ``expected``'s, bit for bit and of its type.

    A float's repr gives its bits back, and an int's differs from the equal
    float's.  '%.8e' hides most one-ulp moves, so the CSV text alone cannot
    show this.
    """
    assert len(rows) == len(expected)
    differ = [
        (i, name, row[name], want[name])
        for i, (row, want) in enumerate(zip(rows, expected))
        for name in COLUMNS if repr(row[name]) != repr(want[name])
    ]
    assert differ[:5] == []


def assert_matches_oracle(spec):
    """compute_rows and run_sweep's packed table both hold the oracle's cells."""
    expected = oracle_rows(spec)
    assert_same_bits(compute_rows(spec), expected)
    assert_same_bits(packed_rows(spec), expected)


def read_csv_columns(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], rows[1:]
    return {
        name: [row[i] for row in data] for i, name in enumerate(header)
    }


class TestConfigValidation:
    build = staticmethod(SweepSpec.from_config)

    def test_valid_config_loads(self, tmp_path):
        spec = self.build(base_config(tmp_path))
        assert spec.variable == "epsilon"
        assert spec.points == 7

    def test_missing_field_named(self, tmp_path):
        config = base_config(tmp_path)
        del config["points"]
        with pytest.raises(SweepConfigError, match="'points'"):
            SweepSpec.from_config(config)

    def test_unexpected_field_named(self, tmp_path):
        with pytest.raises(SweepConfigError, match="'extra'"):
            SweepSpec.from_config(base_config(tmp_path, extra=1))

    def test_root_must_be_an_object(self):
        with pytest.raises(SweepConfigError, match="^config root must be a JSON object$"):
            SweepSpec.from_config([])

    def test_unknown_variable(self, tmp_path):
        with pytest.raises(SweepConfigError, match="variable"):
            self.build(base_config(tmp_path, variable="voltage"))

    def test_bad_scale(self, tmp_path):
        with pytest.raises(SweepConfigError, match="scale"):
            self.build(base_config(tmp_path, scale="cubic"))

    def test_too_few_points(self, tmp_path):
        with pytest.raises(SweepConfigError, match="points"):
            self.build(base_config(tmp_path, points=1))

    def test_non_integer_points(self, tmp_path):
        with pytest.raises(SweepConfigError, match="points"):
            self.build(base_config(tmp_path, points=5.5))

    def test_reversed_range(self, tmp_path):
        with pytest.raises(SweepConfigError, match="start"):
            self.build(base_config(tmp_path, start=1e-3, stop=1e-30))

    def test_log_scale_needs_positive_start(self, tmp_path):
        with pytest.raises(SweepConfigError, match="log"):
            self.build(
                base_config(tmp_path, scale="log", start=0.0, stop=1.0)
            )

    def test_fixed_cannot_repeat_variable(self, tmp_path):
        config = base_config(tmp_path)
        config["fixed"]["epsilon"] = 1e-9
        with pytest.raises(SweepConfigError, match="sweep variable"):
            self.build(config)

    def test_fixed_unknown_key_named(self, tmp_path):
        config = base_config(tmp_path)
        config["fixed"]["R"] = 1e3
        with pytest.raises(SweepConfigError, match="'R'"):
            self.build(config)

    def test_fixed_must_be_object(self, tmp_path):
        with pytest.raises(SweepConfigError, match="fixed"):
            self.build(base_config(tmp_path, fixed=[1, 2]))

    @pytest.mark.parametrize("value", ["abc", True, None, [1e-15]])
    def test_fixed_value_must_be_a_number(self, tmp_path, value):
        config = base_config(tmp_path)
        config["fixed"]["C"] = value
        with pytest.raises(SweepConfigError, match="'C' must be a number"):
            self.build(config)

    @pytest.mark.parametrize("value", [2.7, "3", True, math.inf, math.nan])
    def test_fixed_n_switches_must_be_an_integer(self, tmp_path, value):
        config = base_config(tmp_path)
        config["fixed"]["n_switches"] = value
        with pytest.raises(SweepConfigError, match="'n_switches' must be an integer"):
            self.build(config)

    @pytest.mark.parametrize(
        "name, named",
        [
            ("start", "fields 'start'/'stop': must be finite numbers"),
            ("stop", "fields 'start'/'stop': must be finite numbers"),
            ("n_switches", "field 'fixed': 'n_switches' must fit in a float"),
        ],
    )
    def test_integer_past_float_range_is_named(self, tmp_path, name, named):
        config = base_config(tmp_path, start=1.0, stop=2.0)
        if name == "n_switches":
            config["fixed"]["n_switches"] = 10**400
        else:
            config[name] = 10**400
        with pytest.raises(SweepConfigError, match=named):
            self.build(config)

    @pytest.mark.parametrize("value", [1, 1.0, 0, -5])
    def test_fixed_n_switches_below_two_is_refused(self, tmp_path, value):
        # Refused by field name whether or not e_switch would read it.
        for fixed in ({"q": 50.0}, {"q": 50.0, "e_switch": 3.0}):
            config = base_config(tmp_path, fixed={**fixed, "n_switches": value})
            message = f"field 'fixed': 'n_switches' must be >= 2, got {value!r}"
            with pytest.raises(SweepConfigError) as info:
                self.build(config)
            assert str(info.value) == message

    def test_whole_number_float_n_switches_counts_as_integer(self, tmp_path):
        rows = {}
        for value in (3, 3.0):
            config = base_config(
                tmp_path, variable="q", start=2.0, stop=100.0,
                fixed={"e_switch": 70.0, "n_switches": value},
            )
            rows[value] = compute_rows(self.build(config))
        assert rows[3.0] == rows[3]
        assert rows[3][0]["break_even_kT"] == 3 * 70.0 / rows[3][0]["tank_efficiency"]

    def test_points_bounded_before_any_work(self, tmp_path):
        assert self.build(base_config(tmp_path, points=MAX_POINTS)).points == MAX_POINTS
        with pytest.raises(SweepConfigError, match="points"):
            self.build(base_config(tmp_path, points=MAX_POINTS + 1))

    def test_string_start_is_named(self, tmp_path):
        named = "field 'start': must be a number, got '1e-30'"
        with pytest.raises(SweepConfigError, match=named):
            self.build(base_config(tmp_path, start="1e-30"))

    @pytest.mark.parametrize("name", ["variable", "scale", "output"])
    def test_text_field_must_be_a_string(self, tmp_path, name):
        with pytest.raises(SweepConfigError, match=f"'{name}': must be a string"):
            self.build(base_config(tmp_path, **{name: 3}))

    def test_empty_output_is_refused(self, tmp_path):
        named = "^field 'output': must be a non-empty path$"
        with pytest.raises(SweepConfigError, match=named):
            self.build(base_config(tmp_path, output=""))

    @pytest.mark.parametrize("value", [True, 12.0, "12"])
    def test_seed_must_be_an_integer(self, tmp_path, value):
        with pytest.raises(SweepConfigError, match="'seed': must be an integer"):
            self.build(base_config(tmp_path, seed=value))

    def test_endpoints_are_stored_as_floats(self, tmp_path):
        spec = self.build(base_config(tmp_path, scale="linear", start=-1, stop=3))
        assert (spec.start, spec.stop) == (-1.0, 3.0)
        assert type(spec.start) is type(spec.stop) is float

    def test_fixed_is_copied(self, tmp_path):
        config = base_config(tmp_path)
        spec = self.build(config)
        config["fixed"]["C"] = math.nan
        assert spec.fixed["C"] == 1e-15


def keywords(config):
    """A config's fields as SweepSpec keywords, bypassing from_config."""
    return SweepSpec(
        **{"output_path" if name == "output" else name: value
           for name, value in config.items()}
    )


class TestDirectConstruction(TestConfigValidation):
    """The same configs, passed straight to SweepSpec, are checked alike."""

    build = staticmethod(keywords)
    # Only from_config reads the root object and its field names.
    test_missing_field_named = test_unexpected_field_named = None
    test_root_must_be_an_object = None


class TestGrid:
    def test_linear_grid_endpoints(self, tmp_path):
        spec = SweepSpec.from_config(
            base_config(
                tmp_path, variable="T", scale="linear", start=100.0, stop=500.0,
                points=5, fixed={},
            )
        )
        grid = spec.grid()
        assert grid[0] == 100.0 and grid[-1] == 500.0
        assert list(grid) == sorted(grid)

    def test_log_grid_endpoints(self, tmp_path):
        spec = SweepSpec.from_config(base_config(tmp_path))
        grid = spec.grid()
        assert grid[0] == 1e-30 and grid[-1] == 1e-3
        assert list(grid) == sorted(grid)


class TestDerivedColumns:
    def test_epsilon_sweep_floor_column_is_log_inverse(self, tmp_path):
        spec = SweepSpec.from_config(base_config(tmp_path))
        rows = compute_rows(spec)
        for row in rows:
            assert row["floor_short_kT"] == pytest.approx(
                -math.log(row["epsilon"]), rel=1e-12
            )
            # tau and t_o are fixed, so the long floor tracks the short one.
            assert row["floor_long_kT"] == pytest.approx(
                row["floor_short_kT"] + math.log(1e-3 / 1e-9), rel=1e-12
            )

    def test_underdetermined_cells_stay_empty(self, tmp_path):
        spec = SweepSpec.from_config(
            base_config(tmp_path, fixed={})  # epsilon alone
        )
        rows = compute_rows(spec)
        for row in rows:
            assert row["sigma_V"] is None
            assert row["e1_kT"] is None
            assert row["tank_efficiency"] is None
            assert row["floor_short_kT"] is not None

    def test_swing_sweep_energy_is_quadratic(self, tmp_path):
        spec = SweepSpec.from_config(
            base_config(
                tmp_path, variable="U1", scale="linear", start=6.02e-3,
                stop=24.08e-3, points=3, fixed={"C": 1e-15},
            )
        )
        rows = compute_rows(spec)
        assert rows[-1]["e1_kT"] == pytest.approx(16.0 * rows[0]["e1_kT"], rel=1e-9)
        assert rows[-1]["epsilon_inst"] < rows[0]["epsilon_inst"]
        assert rows[-1]["cycle_kT"] == pytest.approx(2.0 * rows[-1]["e1_kT"], rel=1e-15)

    def test_quality_sweep_break_even(self, tmp_path):
        spec = SweepSpec.from_config(
            base_config(
                tmp_path, variable="q", scale="log", start=2.0, stop=200.0,
                points=5, fixed={"e_switch": 70.0},
            )
        )
        rows = compute_rows(spec)
        etas = [row["tank_efficiency"] for row in rows]
        assert all(a < b for a, b in zip(etas, etas[1:]))
        for row in rows:
            assert row["break_even_kT"] == pytest.approx(
                140.0 / row["tank_efficiency"], rel=1e-12
            )

    def test_negative_swing_is_refused(self, tmp_path):
        spec = SweepSpec.from_config(
            base_config(
                tmp_path, variable="C", start=1e-16, stop=1e-14,
                fixed={"U1": -0.5},
            )
        )
        with pytest.raises(ValueError, match="swing_voltage must be >= 0 V, got -0.5"):
            compute_rows(spec)

    @pytest.mark.parametrize(
        "variable, start, stop, fixed, message",
        [
            # The library's bounds, not copies of them, refuse row values.
            ("C", 0.0, 1e-15, {}, "capacitance must be > 0 F, got 0.0"),
            ("e_switch", -2.0, 2.0, {"q": 50.0},
             "e_switch_control must be >= 0, got -2.0"),
            ("q", 0.5, 20.0, {},
             "quality factor must exceed 0.5 (underdamped), got 0.5"),
            # kT/C underflows to 0, so epsilon_inst has no noise to divide by.
            ("U1", 0.1, 1.0, {"C": 1e300, "T": 1e-15},
             "sigma must be > 0 V, got 0.0"),
        ],
    )
    def test_row_value_is_refused_by_the_library(
        self, tmp_path, variable, start, stop, fixed, message
    ):
        spec = SweepSpec.from_config(base_config(
            tmp_path, variable=variable, scale="linear", start=start, stop=stop,
            points=3, fixed=fixed,
        ))
        with pytest.raises(ValueError) as info:
            compute_rows(spec)
        assert str(info.value) == message

    def test_domain_error_stops_before_writing(self, tmp_path):
        config = base_config(
            tmp_path, variable="epsilon", scale="linear", start=0.1, stop=0.6,
            points=6, fixed={},
        )
        spec = SweepSpec.from_config(config)
        with pytest.raises(ValueError):
            run_sweep(spec)
        assert not (tmp_path / "out.csv").exists()


def count_stages(monkeypatch):
    """The capacitances of the RcStages the sweep builds from now on."""
    built = []

    class CountingStage(RcStage):
        def __post_init__(self):
            built.append(self.capacitance)
            super().__post_init__()

    monkeypatch.setattr(sweep, "RcStage", CountingStage)
    return built


def record_checks(monkeypatch):
    """The parameters of the rows the sweep checks from now on."""
    checked = []
    check_row = sweep._check_row

    def recording(params):
        checked.append(params)
        check_row(params)

    monkeypatch.setattr(sweep, "_check_row", recording)
    return checked


class TestRowInvariantCells:
    @pytest.mark.parametrize("name", sorted(VARIABLE_SWEEPS))
    def test_rows_match_a_full_derivation_of_every_row(self, tmp_path, name):
        # The oracle derives every cell of every row on its own.
        spec = SweepSpec.from_config(
            dict(VARIABLE_SWEEPS[name], output=str(tmp_path / "out.csv"))
        )
        assert_same_bits(compute_rows(spec), oracle_rows(spec))

    @pytest.mark.parametrize("variable", ["C", "U1", "T", "epsilon"])
    def test_groups_share_one_stage_per_row(self, tmp_path, monkeypatch, variable):
        # sigma, the cycle energies and the required swing all read C, and a
        # checked row builds one stage for all of them.  An accepted sweep
        # checks its least and greatest values only, whatever its size.
        built = count_stages(monkeypatch)
        checked = record_checks(monkeypatch)
        fixed = {"C": 1e-15, "U1": 0.5, "T": 300.0, "epsilon": 1e-9}
        del fixed[variable]
        for points in (2, 5, 5000):
            spec = SweepSpec.from_config(base_config(
                tmp_path, variable=variable, start=0.1, stop=0.4, points=points,
                fixed=fixed,
            ))
            del built[:], checked[:]
            run_sweep(spec)
            assert [params[variable] for params in checked] == [0.1, 0.4]
            assert len(built) == 2

    @pytest.mark.parametrize("variable, scale, start, stop, points, fixed, refused", [
        # The least value is refused, so the check stops at row 0.
        ("C", "log", 1e-16, 1e-14, 7, {"U1": -0.5}, 0),
        # The greatest value is refused; row 4 reaches epsilon = 0.5.
        ("epsilon", "linear", 0.1, 0.6, 6, {}, 4),
    ])
    def test_refused_sweep_stops_at_its_first_refused_row(
        self, tmp_path, monkeypatch, variable, scale, start, stop, points, fixed, refused
    ):
        checked = record_checks(monkeypatch)
        spec = SweepSpec.from_config(base_config(
            tmp_path, variable=variable, scale=scale, start=start, stop=stop,
            points=points, fixed=fixed,
        ))
        with pytest.raises(ValueError):
            run_sweep(spec)
        values = [params[variable] for params in checked]
        extremes = [start] if refused == 0 else [start, stop]
        assert values == extremes + spec.grid().tolist()[:refused + 1]

    @pytest.mark.parametrize(
        "variable, scale, start, stop, points, fixed, message",
        [
            # Row 0 fails.
            ("C", "log", 1e-16, 1e-14, 7, {"U1": -0.5},
             "swing_voltage must be >= 0 V, got -0.5"),
            # Row 4 reaches epsilon = 0.5.
            ("epsilon", "linear", 0.1, 0.6, 6, {},
             "epsilon must lie in the open interval (0, 0.5), got 0.5"),
            # The last row's tau passes t_o.
            ("tau", "log", 1e-10, 1e-2, 9, {"epsilon": 1e-9, "t_o": 1e-3},
             "observation_time must be >= correlation_time for the long floor "
             "(got t_o=0.001, tau=0.01)"),
        ],
    )
    def test_failing_row_raises_its_message_and_writes_nothing(
        self, tmp_path, variable, scale, start, stop, points, fixed, message
    ):
        spec = SweepSpec.from_config(base_config(
            tmp_path, variable=variable, scale=scale, start=start, stop=stop,
            points=points, fixed=fixed,
        ))
        with pytest.raises(ValueError) as info:
            run_sweep(spec)
        assert str(info.value) == message
        assert list(tmp_path.iterdir()) == []


class TestOutputFiles:
    def test_csv_shape_and_formatting(self, tmp_path):
        spec = SweepSpec.from_config(base_config(tmp_path))
        csv_path, manifest_path = run_sweep(spec)
        raw = csv_path.read_bytes()
        assert raw.count(b"\r\n") == 8  # header + 7 rows, RFC-4180 endings
        columns = read_csv_columns(csv_path)
        assert list(columns) == list(COLUMNS)
        assert columns["epsilon"][0] == "1.00000000e-30"
        assert columns["U1"] == [""] * 7  # not supplied anywhere
        floors = [float(cell) for cell in columns["floor_short_kT"]]
        assert floors == sorted(floors, reverse=True)

    def test_manifest_contents(self, tmp_path):
        spec = SweepSpec.from_config(base_config(tmp_path))
        _, manifest_path = run_sweep(spec)
        manifest = json.loads(manifest_path.read_text())
        assert manifest["tool"] == "ktfloor"
        assert manifest["variable"] == "epsilon"
        assert manifest["rows"] == 7
        assert manifest["seed"] == 99
        assert manifest["columns"] == list(COLUMNS)
        assert "version" in manifest
        # Reproducibility: nothing time- or host-dependent in the manifest.
        assert set(manifest) == {
            "tool", "version", "command", "variable", "scale", "start",
            "stop", "points", "fixed", "seed", "rows", "columns", "output_csv",
        }

    def test_reruns_are_byte_identical(self, tmp_path):
        spec = SweepSpec.from_config(base_config(tmp_path))
        csv_path, manifest_path = run_sweep(spec)
        first_csv = csv_path.read_bytes()
        first_manifest = manifest_path.read_bytes()
        csv_path, manifest_path = run_sweep(spec)
        assert csv_path.read_bytes() == first_csv
        assert manifest_path.read_bytes() == first_manifest

    def test_manifest_lands_next_to_csv(self, tmp_path):
        spec = SweepSpec.from_config(base_config(tmp_path))
        csv_path, manifest_path = run_sweep(spec)
        assert manifest_path == tmp_path / "out.manifest.json"


class TestPackedTable:
    @pytest.mark.parametrize("name", sorted(VARIABLE_SWEEPS))
    def test_csv_is_a_plain_rendering_of_compute_rows(self, tmp_path, name):
        spec = SweepSpec.from_config(
            dict(VARIABLE_SWEEPS[name], output=str(tmp_path / "out.csv"))
        )
        lines = [",".join(COLUMNS)] + [
            ",".join("" if row[n] is None else "%.8e" % row[n] for n in COLUMNS)
            for row in compute_rows(spec)
        ]
        csv_path, _ = run_sweep(spec)
        assert csv_path.read_bytes() == "".join(f"{line}\r\n" for line in lines).encode()

    def test_memory_is_bounded_by_the_packed_cells(self, tmp_path):
        points = 20_000
        spec = SweepSpec.from_config(base_config(
            tmp_path, variable="C", start=1e-16, stop=1e-13, points=points,
            fixed={"U1": 0.5, "T": 300.0, "epsilon": 1e-12, "t_o": 1e-3,
                   "tau": 1e-10, "q": 100.0, "e_switch": 10.0},
        ))
        _, peak = traced_peak(lambda: run_sweep(spec))
        # C, sigma, the five charge cells and the two required-swing cells
        # vary: their 8-byte cells, less than as much again for the buffer's
        # growth and the grid's floats, and one block of rows as Python
        # floats and text.
        packed = 8 * 9 * points
        assert peak < 2 * packed + 2**20


# Each fixed parameter's usual value, and the range a drawn value comes from.
# Every range crosses a library bound: U1 < 0 or an energy past the float
# range, C <= 0, kT <= 0, epsilon outside (0, 0.5), t_o < tau, q <= 0.5 or
# e_switch < 0.
SWEEP_VALUES = {
    "U1": (0.5, -0.5, 1e200),
    "C": (1e-15, -1e-15, 1e-12),
    "T": (300.0, -10.0, 1e4),
    "epsilon": (1e-9, -0.1, 0.6),
    "t_o": (1e-6, -1e-9, 1e-3),
    "tau": (1e-9, -1e-9, 1e-3),
    "q": (20.0, 0.3, 1e3),
    "e_switch": (10.0, -5.0, 100.0),
}
# Fixed values past an overflow or underflow: sigma that underflows to 0 V
# (C 1e300 at T 1e-15) or overflows (C 5e-324), and a swing whose energy
# overflows.
EXTREMES = {"U1": [1e160, -0.0], "C": [1e300, 5e-324], "T": [1e-15, 1e300]}


@st.composite
def sweep_configs(draw):
    variable = draw(st.sampled_from(PARAMETERS))
    scale = draw(st.sampled_from(["linear", "log"]))
    usual, lo, hi = SWEEP_VALUES[variable]
    if scale == "log":
        lo = max(lo, usual * 1e-6)
    start = draw(st.one_of(st.just(usual), st.floats(lo, hi, exclude_max=True)))
    if draw(st.booleans()):
        stop = draw(st.one_of(st.just(hi), st.floats(start, hi, exclude_min=True)))
    else:
        # A range a few ulps wide.
        stop = start
        for _ in range(draw(st.integers(1, 8))):
            stop = math.nextafter(stop, math.inf)
    fixed = {}
    for name in sorted(draw(st.sets(st.sampled_from(sorted(SWEEP_VALUES)))) - {variable}):
        usual, low, high = SWEEP_VALUES[name]
        fixed[name] = draw(st.one_of(
            st.just(usual), st.floats(low, high), st.sampled_from(EXTREMES.get(name, [usual])),
        ))
    if draw(st.booleans()):
        fixed["n_switches"] = draw(st.integers(2, 5))
    return {
        "variable": variable, "scale": scale, "start": start, "stop": stop,
        "points": draw(st.integers(2, 25)), "fixed": fixed,
    }


# Ranges from a valid start to a stop past a bound, so that the first refused
# row comes after row 0: (variable, start range, stop range, fixed).
CROSSINGS = [
    ("epsilon", (1e-12, 0.49), (0.5, 0.6), {}),
    ("tau", (1e-12, 1e-6), (1.1e-6, 1e-3), {"epsilon": 1e-9, "t_o": 1e-6}),
    # t_o/tau overflows.
    ("t_o", (1e-290, 1.0), (1e9, 1e10), {"epsilon": 1e-9, "tau": 1e-300}),
    # The charge energy overflows.
    ("U1", (1e-3, 1.0), (1e160, 1e200), {"C": 1e-15}),
    # kT/C underflows, so sigma is 0 V.
    ("C", (1e-15, 1e280), (1e290, 1e300), {"U1": 0.5, "T": 1e-15}),
    # The switch overhead overflows.
    ("e_switch", (1e-3, 1e300), (1e308, 1.7e308), {"q": 20.0, "n_switches": 5}),
]


@st.composite
def crossing_configs(draw):
    variable, (a, b), (c, d), fixed = draw(st.sampled_from(CROSSINGS))
    return {
        "variable": variable, "scale": draw(st.sampled_from(["linear", "log"])),
        "start": draw(st.floats(a, b)), "stop": draw(st.floats(c, d)),
        "points": draw(st.integers(2, 25)), "fixed": fixed,
    }


class TestColumnPath:
    """The column forms derive every cell, with the oracle's bits."""

    @pytest.mark.parametrize("name", sorted(VARIABLE_SWEEPS))
    def test_table_is_compute_rows_bit_for_bit(self, tmp_path, name):
        # With test_rows_match_a_full_derivation_of_every_row, this holds
        # run_sweep's table to the oracle.
        spec = SweepSpec.from_config(
            dict(VARIABLE_SWEEPS[name], output=str(tmp_path / "out.csv"))
        )
        assert_same_bits(packed_rows(spec), compute_rows(spec))

    # Two-point grids, so each endpoint is a chosen value.  On numpy 2.4 and
    # glibc each value is a hazard: Python's v**2 differs from v*v (and so
    # from np.square) for U1, and for the required swing 2*sigma*q of each C;
    # np.log differs from math.log for each epsilon and each t_o/tau; and
    # np.log1p(-epsilon) from math.log1p in the multi-sample error.  A column
    # form that called numpy's own function would move a bit away from the
    # oracle here.
    @pytest.mark.parametrize("variable, start, stop, fixed", [
        ("U1", 0.318668, 0.853899, {"C": 1e-15}),
        ("C", 5.884e-14, 9.521e-14, {"epsilon": 1e-9}),
        ("epsilon", 6.022e-06, 0.3981, {}),
        ("t_o", 9.17e-06, 79.39, {"epsilon": 1e-9, "tau": 1e-9}),
        ("epsilon", 0.0004805, 0.0004823, {"t_o": 1e-6, "tau": 1e-9}),
    ])
    def test_bit_hazards_match_compute_rows(self, tmp_path, variable, start, stop, fixed):
        spec = SweepSpec.from_config(base_config(
            tmp_path, variable=variable, scale="linear", start=start, stop=stop,
            points=2, fixed=fixed,
        ))
        assert spec.grid().tolist() == [start, stop]
        assert_matches_oracle(spec)

    def test_non_finite_cells_take_the_column_path(self, tmp_path, monkeypatch):
        # kT/C overflows, so every sigma is inf and every epsilon_inst 0.5;
        # the library accepts that, and only the two extreme rows are
        # checked, each building one stage.
        spec = SweepSpec.from_config(base_config(
            tmp_path, variable="C", start=1e-300, stop=1e-290, points=2000,
            fixed={"T": 1e300, "U1": 0.5},
        ))
        built = count_stages(monkeypatch)
        rows = packed_rows(spec)
        assert len(built) == 2
        assert all(row["sigma_V"] == math.inf for row in rows)
        assert_same_bits(rows, oracle_rows(spec))

    def test_interior_point_outside_a_narrow_log_range(self, tmp_path):
        # geomspace puts row 1 an ulp below row 0, so t_o < tau there
        # although both endpoints pass.
        spec = SweepSpec.from_config(base_config(
            tmp_path, variable="t_o", start=2.5e-10, stop=2.5000000000000007e-10,
            points=3, fixed={"epsilon": 1e-9, "tau": 2.5e-10},
        ))
        assert spec.grid()[1] < 2.5e-10
        with pytest.raises(ValueError) as info:
            run_sweep(spec)
        assert str(info.value) == (
            "observation_time must be >= correlation_time for the long floor "
            "(got t_o=2.499999999999999e-10, tau=2.5e-10)"
        )
        assert list(tmp_path.iterdir()) == []

    @settings(
        max_examples=500,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(config=st.one_of(sweep_configs(), crossing_configs()))
    def test_columns_match_the_row_loop(self, config):
        # run_sweep refuses exactly the sweeps with a row that _check_row
        # refuses, with the first such row's message; it derives every other
        # sweep with the oracle's bits.
        with tempfile.TemporaryDirectory() as directory:
            spec = SweepSpec.from_config(
                dict(config, output=str(Path(directory) / "rows.csv"))
            )
            try:
                for value in spec.grid().tolist():
                    sweep._check_row({**spec.fixed, spec.variable: value})
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    run_sweep(spec)
                assert str(info.value) == str(exc)
                assert list(Path(directory).iterdir()) == []
            else:
                assert_matches_oracle(spec)
