"""End-to-end benchmark of the avrs CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of bounds, simulate, certify, lemmas, or ``all`` for every
workload in turn.  Run it from anywhere; it works on the checkout it lives
in and writes only under ``.perfbench_work/`` there, which it removes.

A run first times several cold set-ups (a fresh interpreter imports
``avrs.cli``, generates the inputs from the seed and loads them), then
repeats the workload's invocation set, each repetition in a fresh
interpreter as a user would run the ``avrs`` command, until ``--seconds``
have passed.  Every repetition's outputs are checked and hashed; a
non-zero exit code, a failed check or a digest that differs from the first
repetition's counts as a failed operation.

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of traced repetitions (which alternate
with untraced ones, giving the tracing overhead).  The last line of
standard output is the result as JSON; the lines before it give each
metric with its unit and sample count, the output digests and the
machine state.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from reference import reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 9
# every run must end well inside three minutes
BUDGET_S = 170.0
# numpy links OpenBLAS, which would start one thread per core
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def _worker(mode: str, workload: str, seed: int, work: Path, timeout: float, trace=False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--root", str(ROOT),
           "--work", str(work), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **PINNED)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise WorkerError(f"{mode} worker printed no result: {proc.stdout[-500:]!r}") from exc


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result, detail)."""
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setups = []
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            env = _worker("setup", workload, seed, work, BUDGET_S - (t0 - started))
            setups.append(time.perf_counter() - t0)

        paths = workloads.make_inputs(workload, seed, ROOT, work)
        invs = workloads.invocations(workload, seed, paths, work)
        walls = {False: [], True: []}
        layers, rss_kb, refs, errors = [], [], [], []
        first_digests = None
        attempted = failed = work_units = reps = 0
        measure_start = time.perf_counter()
        while True:
            traced = trace and reps % 2 == 0
            shutil.rmtree(work / "out", ignore_errors=True)
            rep_start = time.perf_counter()
            attempted += len(invs)
            reps += 1
            ref_before = reference_seconds()
            try:
                rep = _worker("rep", workload, seed, work, BUDGET_S - (rep_start - started), traced)
            except WorkerError as exc:
                failed += len(invs)
                errors.append(str(exc))
                break
            ref_s = (ref_before + reference_seconds()) / 2.0
            rep_digests, rep_units, rep_ok = {}, 0, True
            for inv, code in zip(invs, rep["codes"]):
                problems, units = workloads.check(inv, ROOT) if code == 0 else (
                    [f"{inv.name}: exit code {code}"], 0)
                if code == 0:
                    rep_digests[inv.name] = workloads.digests(inv.out_dir)
                    if first_digests is not None and rep_digests[inv.name] != first_digests.get(inv.name):
                        problems.append(f"{inv.name}: output digests differ from the first repetition")
                if problems:
                    failed += 1
                    errors.extend(problems)
                    rep_ok = False
                rep_units += units
            if first_digests is None:
                first_digests = rep_digests
            if rep_ok:
                walls[traced].append(sum(rep["times"]))
                work_units = rep_units
                if traced:
                    layers.append(rep["layers"])
                else:
                    rss_kb.append(rep["rss_kb"])
                    refs.append(ref_s)
            now = time.perf_counter()
            enough = now - measure_start >= seconds and (not trace or reps >= 2)
            # stop early rather than let one more repetition overrun the budget
            if enough or now - started + (now - rep_start) > BUDGET_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    correct = failed == 0 and bool(walls[False]) and (not trace or bool(layers))
    wall = statistics.median(walls[False]) if walls[False] else 0.0
    ref = statistics.median(refs) if refs else 0.0
    if trace:
        metrics = _layer_metrics(layers, walls)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_ref": (wall / ref if ref else 0.0, "ref"),
            "peak_rss_mb": (max(rss_kb) / 1024.0 if rss_kb else 0.0, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repetitions": reps,
        "setup_s_samples": setups,
        "wall_s": wall,
        "work_per_s": work_units / wall if wall else 0.0,
        "wall_s_samples": walls[False],
        "ref_s_samples": refs,
        "traced_wall_s_samples": walls[True],
        "work_units": work_units,
        "work_unit": "distortion points" if workload == "bounds" else "coding sessions",
        "fail_ratio": failed / attempted if attempted else 0.0,
        "errors": errors[:20],
        "digests": first_digests,
        "environment": {
            **env,
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_1m": os.getloadavg()[0],
            **PINNED,
        },
    }
    return result, detail


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "games.gap_max":
        return "distortion"
    return "count"


def _layer_metrics(layers: list[dict], walls: dict) -> dict:
    out = {}
    if layers:
        for name in layers[0]:
            # median_low picks a measured sample, so counts stay whole numbers
            out[name] = (statistics.median_low(rep[name] for rep in layers), _layer_unit(name))
    overhead = 0.0
    if walls[True] and walls[False]:
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
    out["trace.overhead_s"] = (overhead, "s")
    return out


def _print_summary(result: dict, detail: dict) -> None:
    w = detail["workload"]
    n_wall = len(detail["wall_s_samples"])
    print(f"workload {w}  seed {detail['seed']}  repetitions {detail['repetitions']}  "
          f"({detail['work_units']} {detail['work_unit']} each)")
    rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
    if not detail["trace"]:
        throughput = "points_per_s" if w == "bounds" else "sessions_per_s"
        rows[1:1] = [("wall_s", detail["wall_s"], "s"), (throughput, detail["work_per_s"], "1/s")]
    for name, value, unit in rows:
        n = len(detail["setup_s_samples"]) if name == "setup_s" else (
            len(detail["traced_wall_s_samples"]) if detail["trace"] else n_wall)
        print(f"  {name:34s} {value:14.6g} {unit:6s} (n={n})")
    print(f"  {'fail_ratio':34s} {detail['fail_ratio']:14.6g} {'-':6s} "
          f"({result['failed']}/{result['attempted']})")
    for err in detail["errors"]:
        print(f"  error: {err}")
    print("detail " + json.dumps(detail, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    missing = [str(p) for p in workloads.REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not an avrs checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result, detail = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except WorkerError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 3
        _print_summary(result, detail)
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
