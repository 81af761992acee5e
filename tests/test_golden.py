"""Golden outputs: the exact bytes of every file the CLI writes.

The digests were taken from the per-cell ``csv.writer`` implementation
(CRLF line ends, ``%.8e`` per number, an empty cell for a missing value), so
a writer change that alters any byte fails here.  The inputs cover a sweep
with every cell filled, a sweep with empty cells, an RK4 waveform and a
sampled noise path.
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

