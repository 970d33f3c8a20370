"""Batch front end: compute bound sweeps, run coding simulations, write
single-session transcripts, certify derandomized ensembles and run the
lemma harnesses, emitting CSV and JSON.

Each subcommand returns its documents, ``{file name: document}`` in write
order, where a document is a payload dict (JSON) or a ``(header, rows)``
pair (CSV).  ``main`` stamps every document with the semantic invocation
(inputs and seed, not execution knobs like --threads or --out-dir) and
writes them only once the command has succeeded, so a failed run leaves no
file and identical invocations give byte-identical files regardless of
worker count or output location.  All randomness descends from the single
--seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .adversary import deterministic_jammer_family, load_jammers, trivial_jammer, worst_case_search
from .bounds import GridConfig, compute_bound_report
from .coding import SessionConfig, sample_typical_sources, simulate_session, simulate_sessions
from .derandomize import certify_ensemble
from .errors import AvrsError, ConfigurationError, UsageError
from .lemmas import HARNESSES, LADDER_COLUMNS, ladder_rows, run_rung
from .model import load_policy, load_problem_spec
from .rng import derive_seed, philox_stream, sample_indices

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_RUNTIME = 3


def _file_fingerprint(path_str: str) -> str:
    """Basename plus content digest: identifies an input file independently
    of where the invocation happened."""
    import hashlib

    p = Path(path_str)
    try:
        digest = hashlib.sha256(p.read_bytes()).hexdigest()[:12]
    except OSError:
        return p.name
    return f"{p.name}:{digest}"


def _metadata(args: argparse.Namespace) -> dict:
    semantic = {}
    for k, v in sorted(vars(args).items()):
        if k in ("func", "command", "out_dir", "threads") or v is None:
            continue
        if k in ("spec", "policy") or (k == "jammers" and Path(str(v)).is_file()):
            semantic[k] = _file_fingerprint(str(v))
        else:
            semantic[k] = v
    return {"command": args.command, "version": __version__, "invocation": semantic}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write(path: Path, meta: dict, doc: dict | tuple[list[str], list[list]]) -> None:
    """Write one document: a payload dict as JSON with a ``meta`` key, a
    ``(header, rows)`` pair as CSV under a ``#`` metadata line."""
    if isinstance(doc, dict):
        path.write_text(json.dumps({"meta": meta, **doc}, sort_keys=True, indent=2) + "\n")
        return
    header, rows = doc
    with path.open("w", newline="") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are refused."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _nonnegative_float(text: str) -> float:
    """argparse type for thresholds and distortion levels: finite and >= 0."""
    value = _finite_float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _positive_float(text: str) -> float:
    """argparse type for radii and tolerances: finite and > 0."""
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return value


def _grid_step(text: str) -> float:
    """argparse type for simplex lattice steps: 1/m for a positive integer m."""
    value = _positive_float(text)
    if value > 1 or abs(value * round(1.0 / value) - 1.0) > 1e-9:
        raise argparse.ArgumentTypeError(f"{text!r} is not 1/m for a positive integer m")
    return value


def _count(text: str) -> int:
    """argparse type for counts: negative values are refused."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is negative")
    return value


def _positive(text: str) -> int:
    """argparse type for worker counts and blocklengths: zero and negative
    values are refused."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _parse_list(text: str, kind, flag: str) -> list:
    """Comma-separated numbers; an entry ``kind`` cannot parse or refuses is
    a usage error that names ``flag``."""
    try:
        return [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} holds a non-numeric entry: {text!r}") from None
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{flag}: {exc}") from None


def _parallel_map(fn, items: list, threads: int) -> list:
    """Order-preserving map; thread count never changes the result."""
    if threads <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def _resolve_jammers(name_or_path: str, config: SessionConfig, n: int, seed: int, budget: int):
    spec = config.spec
    if name_or_path == "trivial":
        return [trivial_jammer(spec)]
    if name_or_path == "all-deterministic":
        return deterministic_jammer_family(spec)
    if name_or_path == "greedy-search":
        x = sample_typical_sources(spec, n, 1, derive_seed(seed, "search-x"))[0]
        return [worst_case_search(config, x, budget, derive_seed(seed, "search"))]
    return load_jammers(name_or_path, spec)


def _coding_config(args: argparse.Namespace) -> SessionConfig:
    """The spec, policy and coding thresholds of a coding subcommand."""
    spec = load_problem_spec(args.spec)
    return SessionConfig(
        spec,
        load_policy(args.policy, spec),
        eps=args.eps,
        delta2=args.delta2,
        gamma=args.gamma,
        f_eps=args.f_eps,
        size_cap=args.cap,
    )


# ---------------------------------------------------------------------------
# subcommands: each returns {file name: document} in write order


def cmd_bounds(args: argparse.Namespace) -> dict:
    ratio = args.coarse_step / args.refine_step
    if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
        raise UsageError("--refine-step must divide --coarse-step")
    spec = load_problem_spec(args.spec)
    grid = GridConfig(coarse_step=args.coarse_step, refine_step=args.refine_step, refine=not args.no_refine)
    if args.d_grid is not None:
        d_values = _parse_list(args.d_grid, _nonnegative_float, "--d-grid")
    elif args.d_points > 0:

        def d_values(lo: float, hi: float) -> list[float]:
            fracs = np.linspace(0.3, 0.9, args.d_points)
            return [float(lo + f * (hi - lo)) for f in fracs]

    else:
        d_values = []
    report = compute_bound_report(spec, d_values, grid, u_size_upper=args.u_upper, u_size_lower=args.u_lower)
    rows = [[p.d, p.r_upper, p.r_lower, p.uncertainty_upper, p.uncertainty_lower] for p in report.points]
    return {
        "bounds.csv": (["D", "R_upper", "R_lower", "uncertainty_upper", "uncertainty_lower"], rows),
        "bounds.json": asdict(report),
    }


def _trial_source(spec, seed: int, jam_id: int, trial: int, n: int) -> tuple[int, np.ndarray]:
    """Session seed and source block of one trial of ``simulate``."""
    s = derive_seed(seed, "trial", jam_id, trial)
    return s, sample_indices(philox_stream(s, "x"), spec.p_x, n)


def cmd_simulate(args: argparse.Namespace) -> dict:
    config = _coding_config(args)
    spec = config.spec
    jammers = _resolve_jammers(args.jammers, config, args.n, args.seed, args.search_budget)

    def run(jam_id: int) -> tuple[list[list], dict]:
        """The trials.csv rows and the simulate.json summary of one jammer."""
        summary = {"jammer_id": jam_id, "descriptor": jammers[jam_id].descriptor, "trials": args.trials}
        if args.trials < 1:
            return [], {**summary, "mean_distortion": None, "enc_fallback_rate": None}
        seeds, xs = zip(*[_trial_source(spec, args.seed, jam_id, t, args.n) for t in range(args.trials)])
        rep = simulate_sessions(np.stack(xs), jammers[jam_id], config, seeds)
        summary["mean_distortion"] = float(rep.distortion.mean())
        summary["enc_fallback_rate"] = float(rep.e_enc.mean())
        flags = zip(rep.distortion.tolist(), rep.e_enc.tolist(), rep.e_dec1.tolist(), rep.e_dec2.tolist())
        return [[args.n, jam_id, *row] for row in flags], summary

    per_jammer = _parallel_map(run, range(len(jammers)), args.threads)
    return {
        "trials.csv": (
            ["n", "jammer_id", "distortion", "E_enc", "E_dec1", "E_dec2"],
            [row for rows, _ in per_jammer for row in rows],
        ),
        "simulate.json": {"jammers": [summary for _, summary in per_jammer]},
    }


def cmd_session(args: argparse.Namespace) -> dict:
    config = _coding_config(args)
    jammers = _resolve_jammers(args.jammers, config, args.n, args.seed, args.search_budget)
    sessions = []
    for jam_id, jammer in enumerate(jammers):
        s, x = _trial_source(config.spec, args.seed, jam_id, 0, args.n)
        batch = simulate_session(x, jammer, config, s)
        entry = {"jammer_id": jam_id, "descriptor": jammer.descriptor}
        for f in fields(batch):
            # row 0: symbol blocks become integer lists, numpy scalars plain
            # values; the code seeds are a tuple of Python ints
            value = getattr(batch, f.name)[0]
            entry[f.name] = value if isinstance(value, int) else value.tolist()
        sessions.append(entry)
    return {"session.json": {"sessions": sessions}}


def cmd_derandomize(args: argparse.Namespace) -> dict:
    if (args.n * args.n if args.K is None else args.K) * args.trials < 2:
        raise UsageError(
            "--K times --trials must be >= 2: a cell's standard error needs two sessions on each side"
        )
    config = _coding_config(args)
    jammers = _resolve_jammers(args.jammers, config, args.n, args.seed, args.search_budget)
    report = certify_ensemble(
        config, args.n, jammers, args.x_samples, args.trials, args.mu, args.seed, k=args.K
    )
    return {"derandomize.json": asdict(report)}


def cmd_lemmas(args: argparse.Namespace) -> dict:
    config = _coding_config(args)
    ns = _parse_list(args.n_ladder, _positive, "--n-ladder")
    harnesses = HARNESSES if not args.harness or "all" in args.harness else args.harness

    def rung(n: int) -> list:
        return run_rung(config, n, harnesses, args.trials, args.delta0, args.delta4, args.seed)

    results = [res for chunk in _parallel_map(rung, ns, args.threads) for res in chunk]
    return {"lemmas.csv": (LADDER_COLUMNS, ladder_rows(results))}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", required=True, help="problem instance JSON file")
    p.add_argument("--out-dir", default=".", help="output directory")
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--threads", type=_positive, default=1, help="worker threads")


def _add_coding(p: argparse.ArgumentParser, recorded: str = "") -> None:
    """The coding options; ``recorded`` ends the help of --n, --jammers and
    --search-budget on a command that only records them."""
    p.add_argument("--policy", required=True, help="auxiliary policy JSON file")
    p.add_argument("--n", type=_positive, required=True, help="blocklength" + recorded)
    p.add_argument("--eps", type=_positive_float, default=0.2)
    p.add_argument("--delta2", type=_nonnegative_float, default=None)
    p.add_argument("--gamma", type=_nonnegative_float, default=None)
    p.add_argument("--f-eps", dest="f_eps", type=_nonnegative_float, default=None)
    p.add_argument("--cap", type=_positive, default=4096, help="codebook size cap")
    p.add_argument(
        "--jammers",
        default="trivial",
        help="jammer file or builtin: trivial | all-deterministic | greedy-search" + recorded,
    )
    p.add_argument(
        "--search-budget",
        type=_positive,
        default=60,
        help="distortion estimates the greedy search may make" + recorded,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avrs",
        description="Minimax rate-distortion bounds and coding simulation "
        "for jammed remote sources",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds", help="compute the distortion floors and rate bounds")
    _add_common(p)
    p.add_argument("--d-grid", default=None, help="comma-separated distortion levels")
    p.add_argument("--d-points", type=_count, default=5, help="auto grid size when --d-grid absent")
    p.add_argument("--coarse-step", type=_grid_step, default=0.05)
    p.add_argument("--refine-step", type=_grid_step, default=0.005)
    p.add_argument("--no-refine", action="store_true")
    p.add_argument("--u-upper", type=_positive, default=None)
    p.add_argument("--u-lower", type=_positive, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("simulate", help="run coding sessions against jammers")
    _add_common(p)
    _add_coding(p)
    p.add_argument("--trials", type=_count, default=100, help="sessions per jammer")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("session", help="write one session's transcript per jammer")
    _add_common(p)
    _add_coding(p)
    p.set_defaults(func=cmd_session)

    p = sub.add_parser("derandomize", help="sample and certify a code ensemble")
    _add_common(p)
    _add_coding(p)
    p.add_argument("--K", type=_positive, default=None, help="ensemble size (default n^2)")
    p.add_argument("--mu", type=_positive_float, default=0.02)
    p.add_argument("--trials", type=_positive, default=1, help="sessions per ensemble member")
    p.add_argument("--x-samples", type=_positive, default=2)
    p.set_defaults(func=cmd_derandomize)

    p = sub.add_parser("lemmas", help="run the statistical lemma harnesses")
    _add_common(p)
    # the harnesses run at each --n-ladder length against the trivial jammer
    _add_coding(p, recorded=" (only recorded in the metadata line of lemmas.csv)")
    p.add_argument("--harness", action="append", choices=HARNESSES + ("all",))
    p.add_argument("--n-ladder", default="8,16,32", help="comma-separated blocklengths of the rungs")
    p.add_argument("--trials", type=_count, default=400)
    p.add_argument("--delta0", type=_positive_float, default=0.1)
    p.add_argument("--delta4", type=_nonnegative_float, default=0.35)
    p.set_defaults(func=cmd_lemmas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        docs = args.func(args)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        meta = _metadata(args)
        for name, doc in docs.items():
            _write(out / name, meta, doc)
        return EXIT_OK
    except (ConfigurationError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except AvrsError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
