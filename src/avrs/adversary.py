"""Jamming strategies and worst-case jammer search.

Strategies come in three kinds: memoryless kernels q(j|x), symbolwise
deterministic maps x -> j, and block strategies that choose a whole jamming
vector from the whole source block (non-causal).  Randomized block
strategies are mixtures of deterministic ones and cannot improve a
maximization, so block strategies are kept deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Union

import numpy as np

from .errors import ConfigurationError, UsageError
from .model import index_table, read_json
from .probability import checked_table
from .mtypes import deterministic_maps
from .rng import derive_seed, philox_stream, sample_rows

if TYPE_CHECKING:  # pragma: no cover
    from .coding import SessionConfig

__all__ = [
    "MemorylessJammer",
    "DeterministicJammer",
    "BlockJammer",
    "JammerStrategy",
    "sample_jamming",
    "fixed_vector_jammer",
    "deterministic_jammer_family",
    "jammer_from_dict",
    "load_jammers",
    "worst_case_search",
    "WorstCaseResult",
]


@dataclass(frozen=True)
class MemorylessJammer:
    """Applies q(j|x), a read-only (X, J) array, independently at every
    position."""

    q: np.ndarray
    descriptor: str = "memoryless"

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", checked_table(self.q, "memoryless jammer q", 2, (1,)))


@dataclass(frozen=True)
class DeterministicJammer:
    """Applies a fixed map x -> j at every position."""

    mapping: tuple[int, ...]
    j_size: int
    descriptor: str = "deterministic"

    def __post_init__(self) -> None:
        mapping = index_table(self.mapping, "deterministic jammer map", self.j_size)
        object.__setattr__(self, "mapping", tuple(mapping.tolist()))


@dataclass(frozen=True)
class BlockJammer:
    """A deterministic function of the whole source block.

    ``fn`` receives the source symbol array and must return a jamming array
    of the same length.  ``descriptor`` identifies the function for
    reproducibility records.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    j_size: int
    descriptor: str


JammerStrategy = Union[MemorylessJammer, DeterministicJammer, BlockJammer]


def fixed_vector_jammer(vector, j_size: int, label: str) -> BlockJammer:
    """Block strategy that plays one fixed jamming vector regardless of x."""
    vec = index_table(vector, f"{label} vector", j_size)
    return BlockJammer(lambda x: vec, j_size, f"{label}{vec.tolist()}")


def sample_jamming(
    jammer: JammerStrategy,
    xs: np.ndarray,
    streams: Callable[[int], np.random.Generator],
) -> np.ndarray:
    """Draw the jamming blocks, shape (T, n), for the source blocks ``xs``.

    ``streams(t)`` is the generator of row t.  Only a row that meets a
    random row of a memoryless kernel asks for it, so deterministic rows
    consume no randomness and a kernel whose rows are all point masses
    reproduces the matching deterministic map bit for bit.
    """
    if isinstance(jammer, DeterministicJammer):
        return np.asarray(jammer.mapping, dtype=np.int64)[xs]
    if isinstance(jammer, BlockJammer):
        out = np.empty(xs.shape, dtype=np.int64)
        for t, row in enumerate(xs):
            block = np.asarray(jammer.fn(row), dtype=np.int64)
            if block.shape != row.shape:
                raise UsageError("block jammer returned a vector of the wrong length")
            if block.min() < 0 or block.max() >= jammer.j_size:
                raise UsageError("block jammer returned a symbol outside the J alphabet")
            out[t] = block
        return out
    if isinstance(jammer, MemorylessJammer):
        rows = jammer.q[xs]  # (T, n, |J|)
        out = np.argmax(rows, axis=-1)
        random_pos = rows.max(axis=-1) < 1.0
        for t in np.flatnonzero(random_pos.any(axis=1)).tolist():
            out[t, random_pos[t]] = sample_rows(streams(t), rows[t, random_pos[t]])
        return out
    raise UsageError(f"unknown jammer strategy {jammer!r}")


def deterministic_jammer_family(spec) -> list[DeterministicJammer]:
    """All |J|^|X| symbolwise deterministic jammers, lexicographic order."""
    nx, nj = spec.w.shape[:2]
    return [DeterministicJammer(tuple(m), nj, f"det{m}") for m in deterministic_maps(nx, nj).tolist()]


def jammer_from_dict(doc: dict, spec, source: str = "<dict>") -> JammerStrategy:
    """Build one jammer from its JSON document form and check that it fits ``spec``."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ConfigurationError(f"{source}: jammer document needs a 'kind' field")
    kind = doc["kind"]
    nx, nj = spec.w.shape[:2]
    try:
        if kind == "memoryless":
            jammer = MemorylessJammer(doc.get("q"))
            if jammer.q.shape != (nx, nj):
                raise ConfigurationError(f"memoryless jammer q must be [x][j] with shape ({nx}, {nj})")
            return jammer
        if kind == "deterministic":
            mapping = doc.get("map")
            if not isinstance(mapping, list) or len(mapping) != nx:
                raise ConfigurationError("deterministic jammer needs a per-x 'map' list")
            return DeterministicJammer(tuple(mapping), nj)
        if kind == "fixed-vector":
            vec = doc.get("vector")
            if not isinstance(vec, list):
                raise ConfigurationError("fixed-vector jammer needs a 'vector' list")
            return fixed_vector_jammer(vec, nj, "fixed-vector")
    except ConfigurationError as exc:
        raise ConfigurationError(f"{source}: {exc}") from None
    raise ConfigurationError(f"{source}: unknown jammer kind {kind!r}")


def load_jammers(path: str | Path, spec) -> list[JammerStrategy]:
    """Read a jammer description file: one document or a non-empty list of them."""
    doc = read_json(path)
    docs = doc if isinstance(doc, list) else [doc]
    if not docs:
        raise ConfigurationError(f"{path}: jammer list is empty")
    return [jammer_from_dict(d, spec, source=str(Path(path))) for d in docs]


@dataclass(frozen=True)
class WorstCaseResult:
    jammer: BlockJammer
    estimate: float
    std_error: float
    evaluations: int


def worst_case_search(
    config: "SessionConfig",
    x: np.ndarray,
    budget: int,
    seed: int,
    restarts: int = 4,
    trials_per_estimate: int = 32,
) -> WorstCaseResult:
    """Greedy coordinate-ascent search for a jamming vector that damages the
    sessions on the source block x (n,).

    Starting from random jamming vectors, single-position changes are kept
    whenever the estimated distortion rises.  Candidate comparisons reuse one
    fixed set of channel seeds (common random numbers), so the search is
    reproducible and monotone under seeded replay.  The returned estimate is
    an inner approximation: a lower bound on the true worst case, re-measured
    on fresh seeds with its standard error.

    Each session draws a fresh code, which models an adversary knowing only
    the code distribution.  The per-type data comes from ``config.family``
    and is shared by all sessions.
    """
    from .coding import simulate_sessions  # local import to avoid a cycle

    if budget < 1:
        raise UsageError("search budget must be >= 1")
    n = len(x)
    nj = config.spec.w.shape[1]
    rng = philox_stream(seed, "worst-case-search")
    xs = np.broadcast_to(x, (trials_per_estimate, n))

    def distortions(jam: BlockJammer, seed_label: str) -> np.ndarray:
        seeds = [derive_seed(seed, seed_label, t) for t in range(trials_per_estimate)]
        return simulate_sessions(xs, jam, config, seeds).distortion

    def estimate(vector: np.ndarray, seed_label: str) -> float:
        jam = fixed_vector_jammer(vector, nj, "search-candidate")
        total = 0.0
        for value in distortions(jam, seed_label).tolist():
            total += value
        return total / trials_per_estimate

    evaluations = 0
    best_vec = np.zeros(n, dtype=np.int64)
    best_val = -np.inf
    for r in range(restarts):
        if evaluations >= budget:
            break
        vec = rng.integers(0, nj, size=n) if r > 0 else np.zeros(n, dtype=np.int64)
        val = estimate(vec, "crn")
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
                    cand_val = estimate(cand, "crn")
                    evaluations += 1
                    if cand_val > val:
                        vec, val = cand, cand_val
                        improved = True
                    if evaluations >= budget:
                        break
        if val > best_val:
            best_val, best_vec = val, vec

    # fresh-seed re-measurement of the incumbent
    jam = fixed_vector_jammer(best_vec, nj, f"greedy-search[{seed}]")
    arr = distortions(jam, "final")
    std_err = float(arr.std(ddof=1) / np.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return WorstCaseResult(jam, float(arr.mean()), std_err, evaluations)
