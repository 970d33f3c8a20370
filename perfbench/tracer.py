"""Outside-in tracer for the avrs benchmark.

The program is not changed: the tracer replaces functions, methods and
properties of the installed ``avrs`` modules with timing wrappers.  A
module that did ``from .x import f`` holds its own reference to ``f``, so a
function is replaced in every loaded ``avrs`` module that refers to it, not
only in the module that defines it.

Each call records a span (id, parent id, name, start, end) in memory; the
per-layer metrics are computed from the spans once the traced run ends.  A
span's self time is its duration minus the durations of its direct
children.  The span stack is not thread-safe: trace only ``--threads 1``
runs.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

# (span name, defining module, function) -- replaced at every import site
FUNCTIONS = (
    ("games.solve", "avrs.games", "solve_bilinear_game"),
    ("bounds.report", "avrs.bounds", "compute_bound_report"),
    ("bounds.per_type_rates", "avrs.bounds", "per_type_rates"),
    ("mtypes.jammer_types", "avrs.mtypes", "valid_jammer_types"),
    ("coding.encode", "avrs.coding", "encode"),
    ("coding.decode", "avrs.coding", "decoder_membership"),
    ("coding.session", "avrs.coding", "simulate_session"),
    ("adversary.jamming", "avrs.adversary", "sample_jamming"),
    ("rng.derive_seed", "avrs.rng", "derive_seed"),
    ("rng.stream", "avrs.rng", "philox_stream"),
    ("derandomize.certify", "avrs.derandomize", "certify_ensemble"),
    ("lemmas.cond_typicality", "avrs.lemmas", "run_conditional_typicality"),
    ("lemmas.covering", "avrs.lemmas", "run_covering"),
    ("lemmas.packing", "avrs.lemmas", "run_packing"),
    ("lemmas.markov", "avrs.lemmas", "run_markov_conclusion"),
)

# (span name, module, class, method)
METHODS = (
    ("coding.type_data", "avrs.coding", "CodebookFamily", "type_data"),
    ("coding.codebook", "avrs.coding", "Codebook", "matrix"),
    ("bounds.refine", "avrs.bounds", "RateBoundSolver", "r_upper_point"),
    ("bounds.refine", "avrs.bounds", "RateBoundSolver", "r_lower_point"),
)

# (span name, module, class, property): the coarse tables of a rate solver,
# built on first access and cached
PROPERTIES = (
    ("bounds.info_matrix", "avrs.bounds", "RateBoundSolver", "info_matrix"),
    ("bounds.max_e", "avrs.bounds", "RateBoundSolver", "max_e_matrix"),
    ("bounds.min_e", "avrs.bounds", "RateBoundSolver", "min_e_matrix"),
)

ROOT = "cli"


class Tracer:
    """Span recorder with counters fed by the wrapped calls' results."""

    def __init__(self) -> None:
        # (span id, parent id or -1, name, start, end)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[int] = []
        self._next_id = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.list_sizes: list[int] = []
        self.jammer_type_keys: set[tuple] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def _wrapper(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = _BEFORE[name](args) if name in _BEFORE else None
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result, before)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Patch every traced callable; the avrs modules must be imported."""
        loaded = [m for k, m in list(sys.modules.items()) if k == "avrs" or k.startswith("avrs.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = self._wrapper(name, original)
            for mod in loaded:
                if getattr(mod, attr, None) is original:
                    self._patch(mod, attr, wrapped)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            self._patch(cls, attr, self._wrapper(name, cls.__dict__[attr]))
        for name, module, cls_name, attr in PROPERTIES:
            cls = getattr(sys.modules[module], cls_name)
            prop = cls.__dict__[attr]
            self._patch(cls, attr, property(self._wrapper(name, prop.fget)))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- metrics --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        child_time: dict[int, float] = defaultdict(float)
        names = {}
        for span_id, parent, name, start, end in self.spans:
            names[span_id] = name
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        session_ms: list[float] = []
        type_data_misses = 0
        for span_id, parent, name, start, end in self.spans:
            self_s[name] += (end - start) - child_time[span_id]
            calls[name] += 1
            if name == "coding.session":
                session_ms.append((end - start) * 1e3)
            elif name == "bounds.per_type_rates" and names.get(parent) == "coding.type_data":
                type_data_misses += 1

        c = self.counters
        jt_calls = calls["mtypes.jammer_types"]
        td_calls = calls["coding.type_data"]
        encodes = calls["coding.encode"]
        return {
            "games.solve_s": self_s["games.solve"],
            "games.solves": calls["games.solve"],
            "games.iterations": int(c["games.iterations"]),
            "games.gap_max": c["games.gap_max"],
            "bounds.reports": calls["bounds.report"],
            "bounds.info_matrix_s": self_s["bounds.info_matrix"],
            "bounds.min_e_s": self_s["bounds.min_e"],
            "bounds.max_e_s": self_s["bounds.max_e"],
            "bounds.refine_s": self_s["bounds.refine"],
            "bounds.per_type_rates_s": self_s["bounds.per_type_rates"],
            "bounds.per_type_rates_calls": calls["bounds.per_type_rates"],
            "mtypes.jammer_types_s": self_s["mtypes.jammer_types"],
            "mtypes.jammer_types_calls": jt_calls,
            "mtypes.jammer_types_kept": int(c["mtypes.jammer_types_kept"]),
            "mtypes.jammer_types_distinct": len(self.jammer_type_keys),
            "mtypes.jammer_types_ms_per_call": (
                self_s["mtypes.jammer_types"] * 1e3 / jt_calls if jt_calls else 0.0
            ),
            "coding.type_data_s": self_s["coding.type_data"],
            "coding.type_data_calls": td_calls,
            "coding.type_data_hit_ratio": 1.0 - type_data_misses / td_calls if td_calls else 0.0,
            "coding.codebook_s": self_s["coding.codebook"],
            "coding.codebooks": int(c["coding.codebooks"]),
            "coding.codewords": int(c["coding.codewords"]),
            "coding.encode_s": self_s["coding.encode"],
            "coding.encode_fallback_ratio": c["coding.fallbacks"] / encodes if encodes else 0.0,
            "coding.decode_s": self_s["coding.decode"],
            "coding.list_size_mean": (
                sum(self.list_sizes) / len(self.list_sizes) if self.list_sizes else 0.0
            ),
            "coding.session_s": self_s["coding.session"],
            "coding.session_ms_p50": _percentile(session_ms, 50),
            "coding.session_ms_p95": _percentile(session_ms, 95),
            "adversary.jamming_s": self_s["adversary.jamming"],
            "rng.seed_s": self_s["rng.derive_seed"] + self_s["rng.stream"],
            "rng.streams": calls["rng.stream"],
            "derandomize.certify_s": self_s["derandomize.certify"],
            "lemmas.covering_s": self_s["lemmas.covering"],
            "lemmas.packing_s": self_s["lemmas.packing"],
            "lemmas.markov_s": self_s["lemmas.markov"],
            "lemmas.cond_typicality_s": self_s["lemmas.cond_typicality"],
            "cli.self_s": self_s[ROOT],
            "trace.wall_s": sum(e - s for _, p, _, s, e in self.spans if p < 0),
        }


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _observe_game(tracer: Tracer, args, result, before) -> None:
    tracer.counters["games.iterations"] += result.iterations
    tracer.counters["games.gap_max"] = max(tracer.counters["games.gap_max"], result.duality_gap)


def _observe_jammer_types(tracer: Tracer, args, result, before) -> None:
    # args: (t_y, spec, f_eps, n); calls beyond the distinct (n, type) keys
    # recompute a table another codebook family already built
    tracer.counters["mtypes.jammer_types_kept"] += len(result)
    tracer.jammer_type_keys.add((args[3], args[0].key()))


def _observe_encode(tracer: Tracer, args, result, before) -> None:
    tracer.counters["coding.fallbacks"] += bool(result.fallback_used)


def _observe_decode(tracer: Tracer, args, result, before) -> None:
    tracer.list_sizes.append(int(result.sum()))


def _observe_codebook(tracer: Tracer, args, result, fresh) -> None:
    # matrix() is called several times per session; count materializations
    if fresh:
        tracer.counters["coding.codebooks"] += 1
        tracer.counters["coding.codewords"] += result.shape[0]


_OBSERVERS = {
    "games.solve": _observe_game,
    "mtypes.jammer_types": _observe_jammer_types,
    "coding.encode": _observe_encode,
    "coding.decode": _observe_decode,
    "coding.codebook": _observe_codebook,
}

# state read before the call and handed to the observer
_BEFORE = {"coding.codebook": lambda args: args[0]._matrix is None}
