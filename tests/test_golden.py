"""Golden-output gate: every file a set of small CLI invocations writes must
keep its sha256.

The table `tests/data/golden_outputs.json` maps "<invocation>/<file>" to the
digest of that file.  Regenerate it only with a declared output change:

    PYTHONPATH=src python tests/test_golden.py > tests/data/golden_outputs.json
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from avrs.cli import main

DATA = Path(__file__).parent / "data"
SPEC = str(DATA / "spec_binary.json")
POLICY = str(DATA / "policy_binary.json")
TABLE = DATA / "golden_outputs.json"

# one memoryless and one fixed-vector jammer for the binary spec at n = 16
JAMMERS = [
    {"kind": "memoryless", "q": [[0.7, 0.3], [0.2, 0.8]]},
    {"kind": "fixed-vector", "vector": [0, 1] * 8},
]
# one jammer of each kind for the binary spec at n = 16; the memoryless one
# mixes a random row with a point-mass row
KINDS = [
    {"kind": "memoryless", "q": [[0.6, 0.4], [0.0, 1.0]]},
    {"kind": "deterministic", "map": [1, 0]},
    {"kind": "fixed-vector", "vector": [1, 1, 0, 1] * 4},
]
# Y is independent of X and the jammer, and Z a jammed noisy copy of X
# (conftest.blind_y_spec): many jammer types share one (U, Z) joint, so the
# decoder's targets hold coinciding rows
BLIND_Y = {
    "name": "blind-y",
    "alphabets": {"x": 2, "j": 2, "y": 2, "z": 2, "xhat": 2},
    "p_x": [0.4, 0.6],
    "w": [
        [[[0.24, 0.06], [0.56, 0.14]], [[0.18, 0.12], [0.42, 0.28]]],
        [[[0.06, 0.24], [0.14, 0.56]], [[0.12, 0.18], [0.28, 0.42]]],
    ],
    "d": [[0, 1], [1, 0]],
}
FILES = {"jammers": JAMMERS, "kinds": KINDS, "blind": BLIND_Y}

CODING = ["--spec", SPEC, "--policy", POLICY, "--seed", "1"]
BLIND = ["--spec", "{blind}", "--policy", POLICY, "--seed", "1"]
INVOCATIONS = {
    "simulate": ["simulate", *CODING, "--n", "16", "--trials", "10", "--jammers", "all-deterministic"],
    "simulate-file": ["simulate", *CODING, "--n", "16", "--trials", "10", "--jammers", "{jammers}"],
    "session": ["session", *CODING, "--n", "16", "--jammers", "all-deterministic"],
    "session-kinds": ["session", *CODING, "--n", "16", "--jammers", "{kinds}"],
    # the worst-case search, which plays fixed jamming vectors
    "simulate-search": [
        "simulate", *CODING, "--n", "8", "--trials", "5", "--jammers", "greedy-search", "--search-budget", "4",
    ],
    "derandomize": ["derandomize", *CODING, "--n", "8", "--x-samples", "2", "--trials", "1"],
    "simulate-blind": ["simulate", *BLIND, "--n", "12", "--trials", "10", "--jammers", "all-deterministic"],
    "derandomize-blind": ["derandomize", *BLIND, "--n", "8", "--x-samples", "2", "--trials", "1"],
    "lemmas": ["lemmas", *CODING, "--n", "8", "--n-ladder", "8,16", "--trials", "20"],
    # the golden bounds sweep of test_cli.py, whose bounds.csv is pinned there
    "bounds": [
        "bounds", "--spec", SPEC, "--d-grid", "0.21,0.23,0.3", "--coarse-step", "0.05",
        "--refine-step", "0.01", "--u-upper", "2", "--u-lower", "2", "--seed", "0",
    ],
}


def run_all(work: Path) -> dict[str, str]:
    """Run every invocation under ``work``; map "<name>/<file>" to its sha256."""
    paths = {}
    for stem, docs in FILES.items():
        path = work / f"{stem}.json"
        path.write_text(json.dumps(docs))
        paths["{" + stem + "}"] = str(path)
    digests = {}
    for name, argv in INVOCATIONS.items():
        out = work / name
        argv = [paths.get(a, a) for a in argv]
        rc = main(argv + ["--out-dir", str(out)])
        if rc != 0:
            raise AssertionError(f"{name} exited {rc}")
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_every_written_file_matches_its_golden_digest(tmp_path):
    expected = json.loads(TABLE.read_text())
    produced = run_all(tmp_path)
    differ = sorted(k for k in expected.keys() | produced.keys() if produced.get(k) != expected.get(k))
    assert not differ, f"files differ from the golden outputs: {differ}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = run_all(Path(tmp))
    sys.stdout.write(json.dumps(table, indent=2, sort_keys=True) + "\n")
