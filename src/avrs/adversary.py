"""Jammers and worst-case jammer search.

A jammer is one kernel q(j|x), held as a read-only array: an (X, J) kernel
that every position applies independently, or an (n, X, J) stack with one
kernel per position of an n-block.  A deterministic map x -> j is a kernel
of one-hot rows, and a fixed jamming vector is a one-hot stack.  The
worst-case search plays fixed vectors: randomized block strategies are
mixtures of deterministic ones and cannot improve a maximization.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from .errors import ConfigurationError, UsageError
from .model import index_table, read_json
from .probability import checked_table
from .mtypes import deterministic_maps
from .rng import derive_seed, philox_stream, sample_rows

if TYPE_CHECKING:  # pragma: no cover
    from .coding import SessionConfig

__all__ = [
    "Jammer",
    "deterministic_jammer",
    "trivial_jammer",
    "sample_jamming",
    "fixed_vector_jammer",
    "deterministic_jammer_family",
    "jammer_from_dict",
    "load_jammers",
    "worst_case_search",
]


@dataclass(frozen=True)
class Jammer:
    """The kernel q(j|x) as a read-only array: (X, J), applied independently
    at every position, or (n, X, J), one kernel per position of an n-block."""

    q: np.ndarray
    descriptor: str = "memoryless"

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", checked_table(self.q, "jammer q", (2, 3), (-1,)))


def deterministic_jammer(mapping, j_size: int, descriptor: str = "deterministic") -> Jammer:
    """The jammer that sends j = mapping[x], as one-hot rows over ``j_size``
    jamming symbols."""
    return Jammer(np.eye(j_size)[index_table(mapping, "deterministic jammer map", j_size)], descriptor)


def trivial_jammer(spec) -> Jammer:
    """The jammer that always sends the first jamming symbol."""
    nx, nj = spec.w.shape[:2]
    return deterministic_jammer((0,) * nx, nj, "trivial")


def fixed_vector_jammer(vector, x_size: int, j_size: int, label: str) -> Jammer:
    """The jammer that plays one fixed jamming vector regardless of x."""
    vec = index_table(vector, f"{label} vector", j_size)
    if vec.ndim != 1:
        raise ConfigurationError(f"{label} vector must be a flat list")
    q = np.broadcast_to(np.eye(j_size)[vec][:, None], (vec.size, x_size, j_size))
    return Jammer(q, f"{label}{vec.tolist()}")


def sample_jamming(
    jammer: Jammer,
    xs: np.ndarray,
    streams: Callable[[int], np.random.Generator],
) -> np.ndarray:
    """Draw the jamming blocks, shape (T, n), for the source blocks ``xs``.

    ``streams(t)`` is the generator of row t, asked for only when the row
    meets a random kernel row; it then gives one uniform per such position,
    in position order.  Point-mass rows send their one symbol and consume no
    randomness, so a kernel whose rows are all point masses is a
    deterministic jammer.
    """
    q, n = jammer.q, xs.shape[1]
    if q.ndim == 3 and q.shape[0] != n:
        raise UsageError(
            f"jammer {jammer.descriptor} has {q.shape[0]} positions, but the source blocks have {n}"
        )
    rows = q.reshape(-1, q.shape[-1])
    # the kernel row each position meets: x, or i·|X| + x in a stack
    at = xs if q.ndim == 2 else np.arange(n) * q.shape[1] + xs
    out = np.argmax(rows, axis=1)[at]
    random_row = rows.max(axis=1) < 1.0
    if random_row.any():
        random_pos = random_row[at]
        for t in np.flatnonzero(random_pos.any(axis=1)).tolist():
            where = np.flatnonzero(random_pos[t])
            out[t, where] = sample_rows(streams(t), rows[at[t, where]])
    return out


def deterministic_jammer_family(spec) -> list[Jammer]:
    """All |J|^|X| symbolwise deterministic jammers, lexicographic order."""
    nx, nj = spec.w.shape[:2]
    return [deterministic_jammer(m, nj, f"det{m}") for m in deterministic_maps(nx, nj).tolist()]


def jammer_from_dict(doc: dict, spec, source: str = "<dict>") -> Jammer:
    """Build one jammer from its JSON document form and check that it fits ``spec``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigurationError(f"{source}: jammer document needs a 'kind' field")
    kind = doc["kind"]
    nx, nj = spec.w.shape[:2]
    try:
        if kind == "fixed-vector":
            vec = doc.get("vector")
            if not isinstance(vec, list):
                raise ConfigurationError("fixed-vector jammer needs a 'vector' list")
            return fixed_vector_jammer(vec, nx, nj, "fixed-vector")
        if kind == "memoryless":
            jammer = Jammer(doc.get("q"))
        elif kind == "deterministic":
            mapping = doc.get("map")
            if not isinstance(mapping, list) or len(mapping) != nx:
                raise ConfigurationError("deterministic jammer needs a per-x 'map' list")
            jammer = deterministic_jammer(mapping, nj)
        else:
            raise ConfigurationError(f"unknown jammer kind {kind!r}")
        if jammer.q.shape != (nx, nj):
            raise ConfigurationError(f"{kind} jammer q must be [x][j] with shape ({nx}, {nj})")
        return jammer
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None


def load_jammers(path: str | Path, spec) -> list[Jammer]:
    """Read a jammer description file: one document or a non-empty list of them."""
    doc = read_json(path)
    docs = doc if isinstance(doc, list) else [doc]
    if not docs:
        raise ConfigurationError(f"{path}: jammer list is empty")
    return [jammer_from_dict(d, spec, source=str(Path(path))) for d in docs]


def worst_case_search(
    config: "SessionConfig",
    x: np.ndarray,
    budget: int,
    seed: int,
    restarts: int = 4,
    trials_per_estimate: int = 32,
) -> Jammer:
    """Greedy coordinate-ascent search for a jamming vector that damages the
    sessions on the source block x (n,); returns it as a fixed-vector jammer.

    Starting from random jamming vectors, single-position changes are kept
    whenever the estimated distortion rises.  Candidate comparisons reuse one
    fixed set of channel seeds (common random numbers), so the search is
    reproducible and monotone under seeded replay.  The jammer found is an
    inner approximation: its distortion bounds the true worst case from
    below.

    Each session draws a fresh code, which models an adversary knowing only
    the code distribution.  The per-type data comes from ``config.family``
    and is shared by all sessions.
    """
    from .coding import simulate_sessions  # local import to avoid a cycle

    if budget < 1:
        raise UsageError("search budget must be >= 1")
    n = len(x)
    nx, nj = config.spec.w.shape[:2]
    rng = philox_stream(seed, "worst-case-search")
    xs = np.broadcast_to(x, (trials_per_estimate, n))
    seeds = [derive_seed(seed, "crn", t) for t in range(trials_per_estimate)]

    def estimate(vector: np.ndarray) -> float:
        jam = fixed_vector_jammer(vector, nx, nj, "search-candidate")
        total = 0.0
        for value in simulate_sessions(xs, jam, config, seeds).distortion.tolist():
            total += value
        return total / trials_per_estimate

    evaluations = 0
    best_vec = np.zeros(n, dtype=np.int64)
    best_val = -np.inf
    for r in range(restarts):
        if evaluations >= budget:
            break
        vec = rng.integers(0, nj, size=n) if r > 0 else np.zeros(n, dtype=np.int64)
        val = estimate(vec)
        evaluations += 1
        improved = True
        while improved and evaluations < budget:
            improved = False
            for pos in range(n):
                if evaluations >= budget:
                    break
                for j in range(nj):
                    if j == vec[pos]:
                        continue
                    cand = vec.copy()
                    cand[pos] = j
                    cand_val = estimate(cand)
                    evaluations += 1
                    if cand_val > val:
                        vec, val = cand, cand_val
                        improved = True
                    if evaluations >= budget:
                        break
        if val > best_val:
            best_val, best_vec = val, vec

    return fixed_vector_jammer(best_vec, nx, nj, f"greedy-search[{seed}]")
