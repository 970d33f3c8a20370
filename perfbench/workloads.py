"""The benchmark's workloads: inputs drawn from a seed, the avrs CLI
invocations that make up one repetition, and the checks on their outputs.

Each workload stresses one layer of avrs and leaves another idle (see
README.md in this directory).  The seed is passed to the CLI as ``--seed``;
for ``bounds`` it also draws the problem instance.  The program only sees
the files written here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("bounds", "simulate", "certify", "lemmas")

# Repository files the workloads read; the benchmark refuses to run without them.
SPEC = Path("tests/data/spec_binary.json")
POLICY = Path("tests/data/policy_binary.json")
GOLDEN = Path("tests/data/golden_bounds.csv")
GOLDEN_GRID = "0.21,0.23,0.3"
REQUIRED = (Path("src/avrs/cli.py"), SPEC, POLICY, GOLDEN)

# Fixed shape of the seeded bounds instance: |X|=3, |J|=2, |Y|=2, |Z|=2, |X^|=3.
BOUNDS_SHAPE = {"x": 3, "j": 2, "y": 2, "z": 2, "xhat": 3}
BOUNDS_POINTS = 5  # the CLI's auto D grid

SIM_N, SIM_TRIALS, SIM_JAMMERS = 24, 25, 4  # all-deterministic: |J|^|X| maps
CERT_N, CERT_X = 16, 4  # K = n^2 members, one session per member
LEM_LADDER, LEM_TRIALS = (8, 16, 24), 40
LEM_HARNESSES, LEM_TRENDS = 4, 3


@dataclass(frozen=True)
class Invocation:
    """One ``avrs`` command line and the directory it writes to."""

    name: str
    argv: tuple[str, ...]
    out_dir: Path


def bounds_instance(seed: int) -> dict:
    """A ternary source read through a jammed binary channel Y and a binary
    side view Z; the seed perturbs the source law, the flip rates and the
    distortion entries, never the structure, so every seed gives a problem
    with d0 < d1 and feasible points on the whole auto grid.

    Y reports whether x >= 1 and is flipped with a rate the jammer raises;
    Z reports whether x <= 1 and is flipped independently of the jammer.
    """
    rng = random.Random(seed)
    weights = [rng.uniform(0.8, 1.2) for _ in range(3)]
    p_x = [v / sum(weights) for v in weights]
    flip_y = (rng.uniform(0.04, 0.06), rng.uniform(0.28, 0.32))
    flip_z = rng.uniform(0.13, 0.17)
    y_bit, z_bit = (0, 1, 1), (1, 1, 0)
    w = [
        [
            [
                [
                    (1 - flip_y[j] if y == y_bit[x] else flip_y[j])
                    * (1 - flip_z if z == z_bit[x] else flip_z)
                    for z in range(2)
                ]
                for y in range(2)
            ]
            for j in range(2)
        ]
        for x in range(3)
    ]
    d = [[0.0 if x == h else rng.uniform(0.9, 1.1) for h in range(3)] for x in range(3)]
    return {
        "name": f"perfbench-{seed}",
        "alphabets": BOUNDS_SHAPE,
        "p_x": p_x,
        "w": w,
        "d": d,
    }


def make_inputs(workload: str, seed: int, root: Path, work: Path) -> dict[str, Path]:
    """Write the workload's input files under ``work/inputs``."""
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    if workload == "bounds":
        spec = inputs / "instance.json"
        spec.write_text(json.dumps(bounds_instance(seed), indent=2) + "\n")
        return {"spec": spec, "golden_spec": root / SPEC}
    paths = {"spec": inputs / SPEC.name, "policy": inputs / POLICY.name}
    shutil.copyfile(root / SPEC, paths["spec"])
    shutil.copyfile(root / POLICY, paths["policy"])
    return paths


def load_inputs(paths: dict[str, Path]) -> None:
    """Parse and validate the inputs with the program's own loaders."""
    from avrs.model import load_policy, load_problem_spec

    spec = load_problem_spec(paths["spec"])
    if "policy" in paths:
        load_policy(paths["policy"], spec)


def invocations(workload: str, seed: int, paths: dict[str, Path], work: Path) -> list[Invocation]:
    out = work / "out"
    common = ("--seed", str(seed), "--threads", "1")
    if workload == "bounds":
        return [
            Invocation(
                "bounds-auto",
                ("bounds", "--spec", str(paths["spec"]), "--u-upper", "2", "--u-lower", "2",
                 "--refine-step", "0.01", "--out-dir", str(out / "auto")) + common,
                out / "auto",
            ),
            # the golden file was written at seed 0
            Invocation(
                "bounds-golden",
                ("bounds", "--spec", str(paths["golden_spec"]), "--d-grid", GOLDEN_GRID,
                 "--u-upper", "2", "--u-lower", "2", "--refine-step", "0.01",
                 "--seed", "0", "--threads", "1", "--out-dir", str(out / "golden")),
                out / "golden",
            ),
        ]
    coding = ("--spec", str(paths["spec"]), "--policy", str(paths["policy"]))
    if workload == "simulate":
        argv = ("simulate",) + coding + (
            "--n", str(SIM_N), "--trials", str(SIM_TRIALS), "--jammers", "all-deterministic")
    elif workload == "certify":
        argv = ("derandomize",) + coding + (
            "--n", str(CERT_N), "--x-samples", str(CERT_X), "--trials", "1", "--mu", "0.05")
    elif workload == "lemmas":
        argv = ("lemmas",) + coding + (
            "--n", str(LEM_LADDER[0]), "--n-ladder", ",".join(map(str, LEM_LADDER)),
            "--trials", str(LEM_TRIALS))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [Invocation(workload, argv + common + ("--out-dir", str(out)), out)]


# ---------------------------------------------------------------------------
# output checks


def digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file an invocation wrote."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _csv_rows(path: Path) -> tuple[dict, list[dict]]:
    """The metadata comment line and the data rows of a CLI CSV file."""
    with path.open(newline="") as fh:
        meta = json.loads(fh.readline()[2:])
        return meta, list(csv.DictReader(fh))


def check(inv: Invocation, root: Path) -> tuple[list[str], int]:
    """Structural checks on an invocation's outputs.

    Returns the list of violations and the units of work the outputs
    record: distortion points for bounds, coding sessions otherwise.
    """
    try:
        return _CHECKS[inv.name](inv.out_dir, root)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{inv.name}: unreadable output: {type(exc).__name__}: {exc}"], 0


def _check_bounds_auto(out: Path, root: Path) -> tuple[list[str], int]:
    doc = json.loads((out / "bounds.json").read_text())
    _, rows = _csv_rows(out / "bounds.csv")
    errors = []
    d0, d1 = doc["d0"], doc["d1"]
    if not d0 <= d1:
        errors.append(f"bounds: d0={d0} > d1={d1}")
    if len(rows) != BOUNDS_POINTS or len(doc["points"]) != BOUNDS_POINTS:
        errors.append(f"bounds: {len(rows)} csv rows, {len(doc['points'])} json points")
    for p in doc["points"]:
        if p["d"] > d1 and (p["r_upper"] != 0.0 or p["r_lower"] != 0.0):
            errors.append(f"bounds: non-zero rate at D={p['d']} above d1={d1}")
        if not p["feasible"]:
            errors.append(f"bounds: D={p['d']} infeasible on a grid inside [d0, d1]")
    return errors, len(rows)


def _check_bounds_golden(out: Path, root: Path) -> tuple[list[str], int]:
    got = (out / "bounds.csv").read_bytes()
    errors = [] if got == (root / GOLDEN).read_bytes() else ["bounds: golden bounds.csv differs"]
    _, rows = _csv_rows(out / "bounds.csv")
    return errors, len(rows)


def _check_simulate(out: Path, root: Path) -> tuple[list[str], int]:
    _, rows = _csv_rows(out / "trials.csv")
    d_max = max(max(r) for r in json.loads((root / SPEC).read_text())["d"])
    errors = []
    if len(rows) != SIM_JAMMERS * SIM_TRIALS:
        errors.append(f"simulate: {len(rows)} rows, expected {SIM_JAMMERS * SIM_TRIALS}")
    bad = [r["distortion"] for r in rows if not 0.0 <= float(r["distortion"]) <= d_max]
    if bad:
        errors.append(f"simulate: distortion outside [0, {d_max}]: {bad[:3]}")
    return errors, len(rows)


def _check_certify(out: Path, root: Path) -> tuple[list[str], int]:
    doc = json.loads((out / "derandomize.json").read_text())
    k = CERT_N * CERT_N
    errors = []
    if doc["k"] != k or len(doc["cells"]) != CERT_X:
        errors.append(f"certify: k={doc['k']}, {len(doc['cells'])} cells; expected {k}, {CERT_X}")
    if any(c["sessions"] != k for c in doc["cells"]):
        errors.append("certify: a cell's session count differs from K * trials")
    # every cell runs K member sessions and K parent sessions
    return errors, 2 * sum(c["sessions"] for c in doc["cells"])


def _check_lemmas(out: Path, root: Path) -> tuple[list[str], int]:
    meta, rows = _csv_rows(out / "lemmas.csv")
    expected = LEM_HARNESSES * len(LEM_LADDER) + LEM_TRENDS
    errors = [] if len(rows) == expected else [f"lemmas: {len(rows)} rows, expected {expected}"]
    # packing and Markov rows each ran `trials` coding sessions; covering
    # runs the encoder alone
    session_rows = sum(r["harness"] in ("packing", "markov-conclusion") for r in rows)
    return errors, session_rows * int(meta["invocation"]["trials"])


_CHECKS = {
    "bounds-auto": _check_bounds_auto,
    "bounds-golden": _check_bounds_golden,
    "simulate": _check_simulate,
    "certify": _check_certify,
    "lemmas": _check_lemmas,
}
