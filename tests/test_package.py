"""The package namespace: which names it exports and what importing them loads.

``ktfloor`` exports its names lazily, so these tests pin both halves of that
contract: every public name still resolves to the object its module defines,
and a caller loads only the modules (and the standard-library machinery)
that the names it touches need.
"""

import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import ktfloor

# Reachable as attributes of a bare ``import ktfloor``; ``cli`` is not.
SUBMODULES = ["audit", "circuit", "csvout", "floors", "noise", "quantities", "sweep", "tank"]

# The public API, by home module.
EXPORTS = {
    "audit": {"AuditReport", "FollowerGate", "audit_claim", "run_cycle"},
    "circuit": {"CycleLedger", "RcStage", "integrated_charge_dissipation"},
    "floors": {
        "ErrorSpec", "FirstPassageResult", "FloorResult", "SwingRequirement",
        "first_passage_mc", "floor_long", "floor_short", "instantaneous_error_prob",
        "log_tail_probability", "multi_sample_error", "observation_count",
        "required_swing", "tail_probability", "tail_quantile",
    },
    "noise": {"NoisePath", "OuProcess", "path_generator", "sample_path", "stationary_path"},
    "quantities": {"BOLTZMANN_CONSTANT", "ROOM_TEMPERATURE", "PhysicalEnvironment"},
    "sweep": {"SweepConfigError", "SweepSpec", "load_config", "run_sweep"},
    "tank": {"BreakEven", "TankCircuit", "TransferReport", "symmetric_tank_efficiency"},
}


def run_fresh(script: str) -> list:
    """Run ``script`` in a fresh interpreter on ``src/``; return its JSON lines."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return [json.loads(line) for line in done.stdout.splitlines()]


# Prints, as one JSON line, the loaded ktfloor submodules and which of the
# heavier or optional modules are loaded.
SHOW_LOADED = (
    "import json, sys\n"
    "def show():\n"
    "    print(json.dumps([\n"
    "        sorted(m for m in sys.modules if m.startswith('ktfloor.')),\n"
    "        [m for m in ('numpy', 'numpy.random', 'concurrent.futures', 'logging')\n"
    "         if m in sys.modules],\n"
    "    ]))\n"
)


class TestExports:
    def test_all_is_the_public_api_with_version_first(self):
        assert ktfloor.__all__[0] == "__version__"
        assert len(ktfloor.__all__) == len(set(ktfloor.__all__))
        assert set(ktfloor.__all__) == {"__version__"}.union(*EXPORTS.values())

    def test_every_export_is_its_home_modules_object(self):
        for module, names in EXPORTS.items():
            home = import_module(f"ktfloor.{module}")
            for name in names:
                assert getattr(ktfloor, name) is getattr(home, name), name

    def test_dir_and_star_import_cover_all(self):
        assert set(ktfloor.__all__) <= set(dir(ktfloor))
        namespace = {}
        exec("from ktfloor import *", namespace)
        for name in ktfloor.__all__:
            assert namespace[name] is getattr(ktfloor, name), name

    def test_unknown_names_raise_attribute_error(self):
        for name in ("nope", "__wrapped__"):
            try:
                getattr(ktfloor, name)
            except AttributeError as exc:
                assert str(exc) == f"module 'ktfloor' has no attribute {name!r}"
            else:
                raise AssertionError(f"ktfloor.{name} resolved")


class TestImportFootprint:
    def test_bare_import_loads_nothing_until_a_name_is_used(self):
        # Probing missing names (as introspection tools do) imports nothing;
        # each submodule is then reachable as an attribute, as it was when
        # the package imported them all.
        script = SHOW_LOADED + (
            "import ktfloor\n"
            "show()\n"
            "for name in ('nope', '__wrapped__', '__path_hooks__', 'cli'):\n"
            "    assert not hasattr(ktfloor, name), name\n"
            "show()\n"
            f"for name in {SUBMODULES!r}:\n"
            "    assert getattr(ktfloor, name) is sys.modules['ktfloor.' + name], name\n"
            "show()\n"
        )
        bare, probed, reached = run_fresh(script)
        assert bare == probed == [[], []]
        assert reached[0] == [f"ktfloor.{name}" for name in SUBMODULES]

    def test_monte_carlo_loads_only_its_modules_and_a_pool_on_demand(self):
        # Every chunk runs serially whatever ``workers`` asks for, so neither
        # one chunk nor two on two workers load concurrent.futures (nor the
        # logging it imports).  numpy.random, which the Philox streams and
        # the C normal fill need, loads on the first call, not on import.
        script = SHOW_LOADED + (
            "from ktfloor import PhysicalEnvironment, RcStage, first_passage_mc, floors\n"
            "show()\n"
            "stage = RcStage(1e-15, 1e5, 0.0, PhysicalEnvironment(temperature=300.0))\n"
            "run = lambda trials: first_passage_mc(\n"
            "    stage, 6e-3, 1e-9, trials=trials, seed=1, workers=2)\n"
            "floors._MC_CHUNK_BYTES = 8 * 11 * 10\n"
            "run(10)\n"
            "show()\n"
            "run(20)\n"
            "show()\n"
        )
        imported, one_chunk, two_chunks = run_fresh(script)
        names = ["circuit", "csvout", "floors", "noise", "quantities"]
        modules = [f"ktfloor.{name}" for name in names]
        assert imported == [modules, ["numpy"]]
        assert one_chunk == two_chunks == [modules, ["numpy", "numpy.random"]]

    def test_oracles_import_no_library_code(self):
        # The oracles in tests/ arbitrate the library's numbers, so they must
        # not run its code: none imports ktfloor, though it is on the path.
        tests = str(Path(__file__).resolve().parent)
        script = (
            f"import json, sys\nsys.path.insert(0, {tests!r})\n"
            "import ar1_oracle, rk4_oracle, sweep_oracle\n"
            "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'ktfloor']))\n"
        )
        assert run_fresh(script) == [[]]
