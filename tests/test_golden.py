"""Golden outputs: the exact bytes of every file the CLI writes.

The digests were taken from the per-cell ``csv.writer`` implementation
(CRLF line ends, ``%.8e`` per number, an empty cell for a missing value), so
a writer change that alters any byte fails here.  The inputs cover a sweep
with every cell filled, a sweep with empty cells, an RK4 waveform and a
sampled noise path, plus a sweep over each parameter on each scale it allows.

The stdout digests pin the exit code and every byte each computing command
prints, as text and as ``--json``, over inputs that reach every conditional
line: the long floor, a claim audit, per-operation accounting, an
inapplicable floor, an underflowed epsilon, a strict failure, threaded Monte
Carlo, the low-confidence warning, RK4, break-even, unequal capacitors and a
lossless tank.
"""

import hashlib
import json

import pytest

from ktfloor.cli import main

FULL_SWEEP = {
    "variable": "C",
    "scale": "log",
    "start": 1e-16,
    "stop": 1e-13,
    "points": 40,
    "fixed": {
        "U1": 0.42,
        "T": 300.0,
        "epsilon": 1e-18,
        "t_o": 3.0e-3,
        "tau": 1e-10,
        "q": 87.5,
        "e_switch": 12.25,
        "n_switches": 3,
    },
    "seed": 7,
}

# Only e_switch is fixed, so every column that needs C, U1 or epsilon stays
# empty, and break-even cells appear next to them.
SPARSE_SWEEP = {
    "variable": "q",
    "scale": "linear",
    "start": 0.75,
    "stop": 1000.0,
    "points": 9,
    "fixed": {"e_switch": 3.5},
}

TANK = (
    "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "2e-15",
    "--resistance", "11.5", "--v0", "0.9", "--simulate",
)

MC = (
    "mc", "--cap", "1e-15", "--res", "1e5", "--threshold-sigma", "2.5",
    "--t-obs", "1e-8", "--trials", "1000", "--seed", "12345",
)

DIGESTS = {
    "full.csv": "d6d7c2f1f8a983cb105d2f15e4d7c3f28ce553aec14ce6ed3684b380a165ee8d",
    "full.manifest.json": "ed0351f9513f6f6254d1aba2b7fe9a15a865ae3ea620acc9bf48fe69de0246cc",
    "sparse.csv": "a58aaa7f6ca263ed9a38ef6ee8ad3dd99d8a8692062d3e7a14b40bfb3c2be083",
    "sparse.manifest.json": "670cb58de720d8964ec34219590dfd7cb3425879405f8b0b889506f29e761740",
    "waveform.csv": "fbad6678613f562fc884724d45b98aae5cb4ead15a9418fc1f13b3593584f866",
    "path.csv": "57286be99150205350bde16b67132390099e0b1ee1f2e92902101d3add72c92b",
}


# name -> argv; each runs once as text and once with --json.
STDOUT_CASES = {
    "floor-short": ("floor", "--epsilon", "1e-30"),
    "floor-long": (
        "floor", "--epsilon", "1e-25", "--t-obs", "3.156e7", "--tau", "1e-10",
    ),
    "cycle": ("cycle", "--cap", "1e-18", "--swing", "0.2"),
    "cycle-claimed-kt": (
        "cycle", "--cap", "1e-15", "--swing", "0.5", "--claimed-kt", "0.5",
    ),
    "cycle-claimed-op": (
        "cycle", "--cap", "1e-15", "--swing", "0.5", "--res", "2e4",
        "--friction-kt", "3", "--claimed", "2.5e-18", "--accounting", "op",
    ),
    "cycle-zero-swing": ("cycle", "--cap", "1e-15", "--swing", "0"),
    "cycle-underflow": ("cycle", "--cap", "1e-15", "--swing", "10"),
    "cycle-strict": (
        "cycle", "--cap", "1e-15", "--swing", "0.5", "--claimed-kt", "0.5",
        "--strict",
    ),
    "mc": (
        "mc", "--cap", "1e-15", "--res", "1e5", "--threshold-sigma", "2.5",
        "--t-obs", "1e-8", "--trials", "1000", "--seed", "12345",
    ),
    "mc-workers": (
        "mc", "--cap", "1e-15", "--res", "1e5", "--threshold-sigma", "2.5",
        "--t-obs", "1e-8", "--trials", "5000", "--seed", "12345",
        "--workers", "3",
    ),
    "mc-low-confidence": (
        "mc", "--cap", "1e-15", "--res", "1e5", "--threshold-sigma", "5",
        "--t-obs", "1e-8", "--trials", "50", "--seed", "12345",
    ),
    "tank": (
        "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "1e-15",
        "--resistance", "10", "--v0", "0.9",
    ),
    "tank-simulate": (
        "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "1e-15",
        "--resistance", "10", "--v0", "0.9", "--simulate",
    ),
    "tank-break-even": (
        "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "1e-15",
        "--resistance", "10", "--v0", "0.9", "--e-switch-kt", "7",
        "--n-switches", "5",
    ),
    "tank-asymmetric": (
        "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "2e-15",
        "--resistance", "11.5", "--v0", "0.9", "--temp", "77",
    ),
    "tank-lossless": (
        "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "1e-15",
        "--v0", "0.9", "--simulate", "--e-switch-kt", "7",
    ),
}

STDOUT_DIGESTS = {
    "cycle --json": "8c47f0f1d26a28f421a716a4c5df609388d1de9afe8f45244691f059ec071510",
    "cycle": "a3ba0535ff33819ba96d49f6a0a5922be2aa29734b12ee3aa14c427487ba8b5c",
    "cycle-claimed-kt --json": "c6f93cd846c22a01b586915b857a9eee0e0036c46b23e3f75ebf33eb4e5ed2fe",
    "cycle-claimed-kt": "9c12c5adb200dbc4eef92ab3847464f6d477f4669f3c43e0a0cd94c3cbda8c68",
    "cycle-claimed-op --json": "b2ffa9339b6d205c5113506aafdb59b81ba54765fdf2591fb28df9cc27f9305d",
    "cycle-claimed-op": "d00d722c4eac9f2401abeab13a1f6307385420907a3e2b131a58526d86bb8ae0",
    "cycle-strict --json": "1ba651c94804b28ece4a46373d8a6e1164eacbc77e3439ea17b53912c0746883",
    "cycle-strict": "bf426c69bcdd26f3207557a457ea04200c15730fe8730d851f44a32665b7f830",
    "cycle-underflow --json": "3c43c197808bb68614b8516501cb9a69dc3e47cb67dde166a739c018457c7708",
    "cycle-underflow": "e353a5c765912ace66f780c12a9f7e342646c58d8f32dda120d3ed4c74f5739c",
    "cycle-zero-swing --json": "42913162a4c78721bf6fb2c77b3f5ce582a99d72d99cd96673a66039a9276ce8",
    "cycle-zero-swing": "31b491a0c5b66aca581c688feb395451c01b3c78865c41d443f1ed54ceb74a81",
    "floor-long --json": "f153dd2785ecca702ddeac3215852b194f4ef689697ce5419ffb9c9b971a7b05",
    "floor-long": "6eb0acf1ffe60b72188cacb0c509ba513a7667d924e70f9395a528d9287ae613",
    "floor-short --json": "dece5faacab5eaeaa1f761afee7d4b83360abe0debfa883799e30877425a6006",
    "floor-short": "fc389991bd79e5ba8c404354257ec335d4aab1391414d1f89043d36183d76ba5",
    "mc --json": "42e3548f3995df6137fa691e44a6f1332af73507ac80516ec9b4d2222b230cdb",
    "mc": "40e99d43a009c3e79b72fb23db772cef8f13b84ba26fd17e0e153021639c1188",
    "mc-low-confidence --json": "96fcbc8ef70560b9a894a630d38b1825b7147193f4bb3a463ed8021ee671ef5e",
    "mc-low-confidence": "0a7de29bb7a40c3be17115bf2006ff530bcb19a71dc6331be559352895655c29",
    "mc-workers --json": "984d2e894b0944013e879fb779d96c6292e2d87b92bc9e591201445eb6ebe3f1",
    "mc-workers": "e827c2d653d9d7bccfcb549bdcf1cce46dceeb5d7f589732fe658dfd28e0a915",
    "tank --json": "da270f5e3be619834580c1ccfa4f14814b68b8ad319535358449208e8d45a2a2",
    "tank": "ad178bf58eb89a4f348ed43906c1c616991c9365a79a729bd6ddea6d1a5a2f99",
    "tank-asymmetric --json": "aac237ab27b42b10e3c1b29ded61ae1e3d1db834b6933b20c5b1d43f88ec7b8e",
    "tank-asymmetric": "58774f6d7e0b779f425b099fd55b3c66e7b7b3b1b36014b70347fa181f8e0804",
    "tank-break-even --json": "d79d2f2961955ead05873f0dbff2415a5a271e38d5c95f67bd401354b1247308",
    "tank-break-even": "41c353a09202e83423ea7ec967f8f109fc3a802645b6f4e579f46d98ab3ee84f",
    "tank-lossless --json": "d962d6582761f9b294e049f899f78e23b9c776e81aed8ff73e4db6cdad1d2887",
    "tank-lossless": "ee31ac72f7ec5c33283088552990eae23e354571b230fbb9ba5857923c58f791",
    "tank-simulate --json": "856e1cd36dfef98d63b2a192cca8720ed2d78c871dd1e5b3fd9525507d85ba71",
    "tank-simulate": "f2caa7c275538c86fd2632688c443dbf2c9780f787bfda521a13cda175fbc369",
}


# Every parameter fixed but the swept one, so every cell is filled.
ALL_FIXED = {
    "U1": 0.42, "C": 1e-15, "T": 300.0, "epsilon": 1e-18, "t_o": 3.0e-3,
    "tau": 1e-10, "q": 87.5, "e_switch": 12.25, "n_switches": 3,
}


def sweep_config(variable, scale, start, stop, points, fixed=None):
    if fixed is None:
        fixed = {key: value for key, value in ALL_FIXED.items() if key != variable}
    return {
        "variable": variable, "scale": scale, "start": start, "stop": stop,
        "points": points, "fixed": fixed,
    }


# One sweep per parameter and scale.  The sparse ones leave groups of cells
# empty for a swept variable other than q; -0.0 is a fixed value that prints
# differently from 0.0.
VARIABLE_SWEEPS = {
    "U1-linear": sweep_config("U1", "linear", 0.0, 1.2, 7),
    "U1-log": sweep_config("U1", "log", 1e-3, 2.0, 9, {"C": 2e-15, "T": 77.0}),
    "C-linear": sweep_config(
        "C", "linear", 1e-16, 5e-15, 6, {"U1": 0.3, "epsilon": 1e-12}
    ),
    "T-linear": sweep_config("T", "linear", 4.2, 400.0, 8),
    "T-log": sweep_config(
        "T", "log", 1.0, 1e4, 9, {"epsilon": 1e-9, "t_o": 1.0, "tau": 1e-9}
    ),
    "epsilon-linear": sweep_config("epsilon", "linear", 1e-6, 0.45, 10),
    "epsilon-log": sweep_config("epsilon", "log", 1e-40, 0.4, 9, {"C": 1e-15}),
    "t_o-linear": sweep_config("t_o", "linear", 1e-10, 1e-3, 7),
    "t_o-log": sweep_config(
        "t_o", "log", 1e-10, 3.156e7, 9, {"epsilon": 1e-30, "tau": 1e-10}
    ),
    "tau-linear": sweep_config("tau", "linear", 1e-12, 3e-3, 7),
    "tau-log": sweep_config(
        "tau", "log", 1e-15, 1e-3, 9, {"epsilon": 1e-6, "t_o": 1e-3, "C": 5e-16}
    ),
    "q-log": sweep_config("q", "log", 0.6, 1e4, 9),
    "e_switch-linear": sweep_config(
        "e_switch", "linear", 0.0, 100.0, 5, {"q": 12.0, "T": 4.2, "n_switches": 4}
    ),
    "e_switch-log": sweep_config("e_switch", "log", 0.1, 1e3, 7),
    "e_switch-without-q": sweep_config(
        "e_switch", "linear", 0.5, 2.0, 4, {"U1": -0.0, "C": 1e-15}
    ),
}

VARIABLE_SWEEP_DIGESTS = {
    "C-linear": "b92b39560b3f0a10781219bdf798beffaef4f329f4e7d354aaf02e1f4d26b222",
    "T-linear": "aced2691a1cf568c8b4a6ea28936249e34c86057383d60bbaacae2a2a862f7e2",
    "T-log": "28eaf2c1dc58a69cf968ac740e095b76461f15ff445a4bfddb069c0edd9e1303",
    "U1-linear": "b8526fbe67c370b2cb58e4372d424a054b3e66895be97d1c51ed24ccc91612b1",
    "U1-log": "29148fd4fcac6e40a645e262c450239edd0be9cf895bdf20b00e5b52601bfebc",
    "e_switch-linear": "9ad23bf828288210fc877fd8b9eb26a09d1a6f43815cf67bebb59503a5bc2650",
    "e_switch-log": "4ef388573cf67f7466508b0cbb80bf3948ac276defb5a705821135eea5e50718",
    "e_switch-without-q": "7d659e3d1e2de8e5b8d5a1bd66a4265c4704837dd2fc6aed7136a2b4b4e95675",
    "epsilon-linear": "e82fe841dd9a9799659c19909deab59c90f79a0eac8c138a3fd552bfb0674c15",
    "epsilon-log": "b9385a9e9f9e59f5df805281a25e1d5eea8e62dfa1955edbe02280505dcca62f",
    "q-log": "e1e4fa92e43573f8234f1730962927de28e49c76b0e512c7ca26899626ee25d1",
    "t_o-linear": "735aaba142335a7b8bf7d3d5226dd34927fed1422ef5134b534281d05ef227dc",
    "t_o-log": "bd007d9eefac779a6aafd62a9bd89273182c00a7a54907d4cf0b0f79d4e5bf7e",
    "tau-linear": "20a3049db962f702d03e912bf98c0ac287034f83755c6ba93a299f58d8126b86",
    "tau-log": "75a5ba1ee336dd1c327408689705ba19ad76b08b702ddc6b1e0388da6c3d32e5",
}


def write_golden_files(directory):
    """Run the CLI once per golden input; returns {file name: bytes}."""
    for name, config in (("full", FULL_SWEEP), ("sparse", SPARSE_SWEEP)):
        path = directory / f"{name}.json"
        path.write_text(json.dumps(dict(config, output=str(directory / f"{name}.csv"))))
        assert main(["sweep", str(path)]) == 0
    assert main([*TANK, "--dump-waveform", str(directory / "waveform.csv")]) == 0
    assert main([*MC, "--dump-path", str(directory / "path.csv")]) == 0
    return {name: (directory / name).read_bytes() for name in DIGESTS}


@pytest.fixture(scope="module")
def golden_files(tmp_path_factory):
    return write_golden_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_file_bytes_match_golden_digest(golden_files, name):
    assert hashlib.sha256(golden_files[name]).hexdigest() == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STDOUT_DIGESTS))
def test_stdout_matches_golden_digest(capsys, name):
    case, _, flag = name.partition(" ")
    code = main([*STDOUT_CASES[case], *flag.split()])
    text = f"{code}\n{capsys.readouterr().out}"
    assert hashlib.sha256(text.encode()).hexdigest() == STDOUT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(VARIABLE_SWEEPS))
def test_variable_sweep_bytes_match_golden_digest(tmp_path, name):
    path = tmp_path / "sweep.json"
    config = dict(VARIABLE_SWEEPS[name], output=str(tmp_path / "out.csv"))
    path.write_text(json.dumps(config))
    assert main(["sweep", str(path)]) == 0
    digest = hashlib.sha256((tmp_path / "out.csv").read_bytes()).hexdigest()
    assert digest == VARIABLE_SWEEP_DIGESTS[name]
