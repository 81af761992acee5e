"""Hypothesis fuzz of ``main(argv)`` over every subcommand.

Each call must end with exit 0, 2 or 3, print no traceback, put exactly one
line on stderr and leave no output file when it exits 2 (and print nothing
on stderr when it does not), and finish within a time budget.  The
strategies draw NaN, infinities, negatives and out-of-range values, but
bound the work themselves (trials, window length, workers, RK4 steps, sweep
points), so that the fuzz cannot cause the blow-up it looks for.  Every argv
parses, so exit 2 is always a domain refusal and never an argparse usage
message.
"""

import contextlib
import io
import json
import math
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktfloor.cli import main
from ktfloor.sweep import PARAMETERS

PER_CALL_BUDGET_S = 5.0

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e-300, 1e300, 1.7e308]
# Values the library refuses before any RK4 step or Monte Carlo draw.
REFUSED = [math.nan, math.inf, -math.inf, -1.0]

any_float = st.one_of(
    st.sampled_from(SPECIAL),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e3, max_value=1e3),
)


def between(lo, hi):
    return st.floats(min_value=lo, max_value=hi)


@st.composite
def mostly(draw, valid, otherwise=any_float):
    """``valid`` about six times in seven, else a draw from ``otherwise``."""
    return draw(valid if draw(st.integers(0, 7)) < 7 else otherwise)


def maybe_refused(valid):
    """Usually ``valid``, sometimes a value refused before any work."""
    return mostly(valid, st.sampled_from(REFUSED))


def opt(name, value):
    # The "--name=value" form keeps negative values from reading as options.
    return [f"{name}={value!r}"]


@st.composite
def common(draw):
    argv = []
    if draw(st.booleans()):
        argv += ["--json"]
    if draw(st.integers(0, 4)) == 0:
        argv += opt("--temp", draw(mostly(between(1.0, 1e3))))
    return argv


@st.composite
def floor_argv(draw):
    argv = ["floor", *opt("--epsilon", draw(mostly(between(1e-300, 0.5))))]
    window = draw(
        mostly(st.sampled_from(["none", "both"]), st.sampled_from(["t_obs", "tau"]))
    )
    if window in ("both", "t_obs"):
        argv += opt("--t-obs", draw(mostly(between(1e-9, 1e9))))
    if window in ("both", "tau"):
        argv += opt("--tau", draw(mostly(between(1e-12, 1e-9))))
    return argv + draw(common())


@st.composite
def cycle_argv(draw):
    argv = [
        "cycle",
        *opt("--cap", draw(mostly(between(1e-18, 1e-9)))),
        *opt("--swing", draw(mostly(between(0.0, 2.0)))),
    ]
    if draw(st.booleans()):
        argv += opt("--res", draw(mostly(between(1e-3, 1e9))))
    friction = draw(st.sampled_from([None, "--friction-per-transition", "--friction-kt"]))
    if friction:
        argv += opt(friction, draw(mostly(between(0.0, 1e3))))
    if draw(st.booleans()):
        argv += opt("--threshold-fraction", draw(mostly(between(0.01, 0.99))))
    claim = draw(st.sampled_from([None, "--claimed", "--claimed-kt"]))
    if claim:
        argv += opt(claim, draw(mostly(between(0.0, 1e3))))
    if draw(st.booleans()):
        argv += ["--accounting=op"]
    if draw(st.booleans()):
        argv += ["--strict"]
    return argv + draw(common())


@st.composite
def mc_argv(draw, tmp_path):
    cap = draw(maybe_refused(between(1e-18, 1e-9)))
    res = draw(maybe_refused(between(1e-3, 1e9)))
    # t_obs/tau is at most 100, so a run draws at most 2000 x 101 normals.
    ratio = draw(mostly(st.floats(1.0, 100.0), st.floats(-10.0, 1.0)))
    argv = [
        "mc", *opt("--cap", cap), *opt("--res", res),
        *opt("--threshold-sigma", draw(mostly(between(0.0, 6.0)))),
        *opt("--t-obs", ratio * cap * res),
        *opt("--trials", draw(mostly(st.integers(1, 2000), st.integers(-3, 0)))),
    ]
    if draw(st.booleans()):
        argv += opt("--workers", draw(mostly(st.integers(1, 4), st.integers(-1, 0))))
    if draw(st.booleans()):
        out_of_range = st.sampled_from([2**64, -(2**63) - 1, 10**400])
        argv += opt("--seed", draw(mostly(st.integers(-(2**63), 2**64 - 1), out_of_range)))
    if draw(st.integers(0, 4)) == 0:
        argv += ["--dump-path", str(tmp_path / "path.csv")]
    return argv + draw(common())


@st.composite
def tank_argv(draw, tmp_path):
    # q >= 0.6 on the slower phase: both phases ring.
    inductance = draw(between(1e-12, 1e-3))
    c1 = draw(between(1e-16, 1e-9))
    c2 = c1 * draw(between(0.01, 100.0))
    q = draw(st.one_of(st.just(math.inf), between(0.6, 1e6)))
    resistance = math.sqrt(inductance / max(c1, c2)) / q
    e_switch = None
    if draw(st.booleans()):
        # Closed form only: no loop, so any float goes.
        argv = [
            "tank",
            *opt("--inductance", draw(mostly(st.just(inductance)))),
            *opt("--c1", draw(mostly(st.just(c1)))),
            *opt("--c2", draw(mostly(st.just(c2)))),
            *opt("--v0", draw(mostly(between(1e-3, 10.0)))),
            *opt("--resistance", draw(mostly(st.just(resistance)))),
        ]
    else:
        # RK4: C2/C1 within 100, q >= 0.6 and dt at most 4x finer than the
        # bound keep a run to about 13k steps.  Half the runs that dump a
        # waveform take a break-even that overflows in kT at any
        # --n-switches, which is refused before RK4 writes anything.
        dump, overflow = draw(st.booleans()), draw(st.booleans())
        dt_bound = math.sqrt(inductance * min(c1, c2)) / 100.0
        argv = [
            "tank",
            *opt("--inductance", draw(maybe_refused(st.just(inductance)))),
            *opt("--c1", draw(maybe_refused(st.just(c1)))),
            *opt("--c2", draw(maybe_refused(st.just(c2)))),
            *opt("--v0", draw(mostly(between(1e-3, 10.0)))),
            *opt("--resistance", draw(maybe_refused(st.just(resistance)))),
            "--simulate",
        ]
        if draw(st.booleans()):
            fraction = draw(maybe_refused(between(0.25, 4.0)))
            argv += opt("--dt", dt_bound * fraction)
        if dump:
            argv += ["--dump-waveform", str(tmp_path / "waveform.csv")]
            if overflow:
                e_switch = draw(between(1e308, 1.7e308))
    if e_switch is None and draw(st.booleans()):
        e_switch = draw(mostly(between(0.0, 1e3)))
    if e_switch is not None:
        argv += opt("--e-switch-kt", e_switch)
    if draw(st.booleans()):
        argv += opt("--n-switches", draw(st.sampled_from([-1, 0, 1, 2, 3, 10**400])))
    return argv + draw(common())


# Each sweep parameter's physical range, from which config values are
# mostly drawn.
SWEEP_RANGES = {
    "U1": between(0.0, 2.0),
    "C": between(1e-18, 1e-9),
    "T": between(1.0, 1e3),
    "epsilon": between(1e-30, 0.4),
    "t_o": between(1e-6, 1e3),
    "tau": between(1e-12, 1e-9),
    "q": between(0.6, 1e4),
    "e_switch": between(0.0, 1e3),
    "n_switches": st.integers(2, 10),
}
config_number = st.one_of(any_float, st.sampled_from([0, 3, 10**400]))


@st.composite
def sweep_config(draw, tmp_path):
    variable = draw(st.sampled_from(PARAMETERS))
    start = draw(mostly(SWEEP_RANGES[variable], config_number))
    stop = draw(mostly(st.just(start * 10 + 1), config_number))
    names = draw(st.sets(st.sampled_from(sorted(SWEEP_RANGES)), max_size=6))
    return {
        "variable": variable,
        "scale": draw(st.sampled_from(["linear", "log"])),
        "start": start,
        "stop": stop,
        "points": draw(mostly(st.integers(2, 50), st.integers(-1, 1))),
        "fixed": {
            name: draw(mostly(SWEEP_RANGES[name], config_number))
            for name in names - {variable}
        },
        "output": str(tmp_path / "rows.csv"),
    }


# The files the strategies name as command outputs.
OUTPUT_FILES = ("path.csv", "waveform.csv", "rows.csv", "rows.manifest.json")

STRATEGIES = {
    "floor": lambda tmp_path: floor_argv(),
    "cycle": lambda tmp_path: cycle_argv(),
    "mc": mc_argv,
    "tank": tank_argv,
    "sweep": sweep_config,
}


def check_main(argv, tmp_path):
    """Run ``main(argv)`` and assert the fuzz's contract; return the exit code.

    A ``dict`` argv is a sweep config, written to a file that ``sweep`` reads.
    """
    # Every example shares tmp_path, so an earlier example's file is cleared.
    outputs = [tmp_path / name for name in OUTPUT_FILES]
    for path in outputs:
        path.unlink(missing_ok=True)
    if isinstance(argv, dict):
        path = tmp_path / "config.json"
        # json.dumps writes NaN and Infinity, which json.loads reads back.
        path.write_text(json.dumps(argv))
        argv = ["sweep", str(path)]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
        assert [path.name for path in outputs if path.exists()] == []
    else:
        assert err.getvalue() == ""
    assert elapsed < PER_CALL_BUDGET_S
    return code


@pytest.mark.parametrize("command", sorted(STRATEGIES))
@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_main_ends_with_a_known_exit_and_at_most_one_error_line(
    tmp_path, command, data
):
    check_main(data.draw(STRATEGIES[command](tmp_path), label="argv"), tmp_path)


# Refusals that must leave no file, which the strategies' fixed examples
# need not draw: which cases they meet shifts with any strategy edit.
KNOWN_REFUSALS = {
    # The break-even energy overflows in kT, after the waveform is named.
    "tank break-even overflows": lambda tmp_path: [
        "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "1e-15",
        "--resistance", "10", "--v0", "1", "--simulate",
        "--dump-waveform", str(tmp_path / "waveform.csv"),
        "--e-switch-kt", "1e308", "--n-switches", "10",
    ],
    # Row 4 is epsilon = 0.5, refused after rows 0-3 are derived.
    "sweep epsilon reaches 0.5": lambda tmp_path: {
        "variable": "epsilon", "scale": "linear", "start": 0.1, "stop": 0.6,
        "points": 6, "output": str(tmp_path / "rows.csv"),
    },
    "mc dump path is a directory": lambda tmp_path: [
        "mc", "--cap", "1e-15", "--res", "1e5", "--threshold-sigma", "3",
        "--t-obs", "1e-9", "--trials", "100", "--dump-path", str(tmp_path),
    ],
}


@pytest.mark.parametrize("case", sorted(KNOWN_REFUSALS))
def test_known_refusal_exits_2_and_leaves_no_file(tmp_path, case):
    assert check_main(KNOWN_REFUSALS[case](tmp_path), tmp_path) == 2
    assert [path.name for path in tmp_path.iterdir()] in ([], ["config.json"])
