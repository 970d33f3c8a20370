"""Child process of the benchmark: one cold interpreter per sample.

    python3 perfbench/worker.py setup --root R --work W --workload NAME --seed N
    python3 perfbench/worker.py rep   --root R --work W --workload NAME --seed N [--trace]

``setup`` imports ``avrs.cli``, generates the workload's inputs and loads
them, then exits; the parent times it from spawn to exit.  ``rep`` runs the
workload's invocations once through ``avrs.cli.main``, exactly as the
``avrs`` entry point would, and prints one JSON line with the wall time of
each invocation, its exit code, the peak resident memory of this process
and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def _import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    import avrs.cli

    src = (root / "src").resolve()
    if src not in Path(avrs.cli.__file__).resolve().parents:
        raise SystemExit(f"avrs imported from {avrs.cli.__file__}, not from {src}")
    return avrs.cli


def _peak_rss_kb() -> int:
    """Peak resident memory of this process since it started the worker.

    Linux carries the parent's peak into ``ru_maxrss`` across exec, so the
    high-water mark of the current address space is read instead.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "rep"))
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    cli = _import_cli(args.root)
    paths = workloads.make_inputs(args.workload, args.seed, args.root, args.work)
    if args.mode == "setup":
        workloads.load_inputs(paths)
        print(json.dumps(_environment()))
        return 0

    tracer = None
    if args.trace:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    times, codes = [], []
    for inv in workloads.invocations(args.workload, args.seed, paths, args.work):
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(list(inv.argv))
        else:
            code = tracer.call(ROOT, cli.main, list(inv.argv))
        times.append(time.perf_counter() - start)
        codes.append(code)
    result = {
        "times": times,
        "codes": codes,
        "rss_kb": _peak_rss_kb(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
