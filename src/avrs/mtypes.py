"""Method-of-types machinery: type tables, typical sets, and the
enumeration of blocklength-realizable jammer conditional types.

Symbol blocks are plain integer arrays.  Type tables keep exact integer
counts; floats appear only when a table is compared against a target
distribution.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from .errors import EnumerationTooLargeError, UsageError

if TYPE_CHECKING:  # pragma: no cover
    from .model import ProblemSpec

__all__ = [
    "TypeTable",
    "compositions",
    "deterministic_maps",
    "pair_counts",
    "nearest_type",
    "type_template",
    "is_typical",
    "valid_jammer_types",
    "consistent_kernels",
]

# Absolute slack for threshold comparisons, so an exactly-attained bound is
# never lost to float rounding.
TYPE_TOL = 1e-12

# Largest number of distinct jammer conditional types enumerated at one
# blocklength before giving up with EnumerationTooLargeError.
MAX_JAMMER_TYPES = 2_000_000


@dataclass(frozen=True)
class TypeTable:
    """Empirical distribution as integer counts over one or more axes."""

    counts: np.ndarray
    n: int

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.min(initial=0) < 0:
            raise UsageError("type counts must be non-negative")
        if int(c.sum()) != self.n:
            raise UsageError(f"type counts sum to {int(c.sum())}, expected n={self.n}")
        if self.n < 1:
            raise UsageError("type denominator n must be >= 1")
        c = np.ascontiguousarray(c)
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def probabilities(self) -> np.ndarray:
        return self.counts / float(self.n)

    def key(self) -> tuple:
        return (self.counts.shape, tuple(self.counts.ravel().tolist()), self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeTable):
            return NotImplemented
        return self.n == other.n and self.counts.shape == other.counts.shape and bool(
            np.array_equal(self.counts, other.counts)
        )

    def __hash__(self) -> int:
        return hash(self.key())


def compositions(
    total: int, parts: int, lo: list[int] | None = None, hi: list[int] | None = None
) -> Iterator[tuple[int, ...]]:
    """All tuples of ``parts`` integers summing to ``total``, part i within
    [lo[i], hi[i]] (by default [0, total]), in lexicographic order."""
    lo = [0] * parts if lo is None else lo
    hi = [total] * parts if hi is None else hi
    if parts == 1:
        if lo[0] <= total <= hi[0]:
            yield (total,)
        return
    # a head outside this range leaves a tail that no bounded parts can fill
    for head in range(max(lo[0], total - sum(hi[1:])), min(hi[0], total - sum(lo[1:])) + 1):
        for tail in compositions(total - head, parts - 1, lo[1:], hi[1:]):
            yield (head,) + tail


def deterministic_maps(domain: int, codomain: int) -> np.ndarray:
    """All maps domain -> codomain as an integer array, lexicographic order."""
    return np.array(list(itertools.product(range(codomain), repeat=domain)), dtype=np.int64)


def pair_counts(rows: np.ndarray, other: np.ndarray, a_size: int, b_size: int) -> np.ndarray:
    """Joint pair counts of each row of ``rows`` against ``other``.

    rows: (..., B, n) ints < a_size; other: (..., n) ints < b_size, one
    sequence per stack of rows or one for all -> (..., B, a_size, b_size).
    The counts of symbol a are one float32 product of the rows' indicator
    of a with the one-hot table of ``other``: sums of 0/1 terms, exact
    while n < 2^24, at 4 bytes per row symbol.
    """
    onehot = (np.asarray(other)[..., :, None] == np.arange(b_size)).astype(np.float32)
    counts = np.empty(rows.shape[:-1] + (a_size, b_size), dtype=np.int64)
    indicator = np.empty(rows.shape, dtype=np.float32)
    for a in range(a_size):
        np.equal(rows, a, out=indicator)
        counts[..., a, :] = indicator @ onehot
    return counts


def nearest_type(p: np.ndarray, n: int) -> TypeTable:
    """Round a pmf to a blocklength-n type by largest-remainder apportionment.

    Leftover counts go to the largest fractional parts, lowest index first on
    ties, so the rounding is deterministic.
    """
    p = np.asarray(p, dtype=np.float64)
    scaled = p * n
    counts = np.floor(scaled).astype(np.int64)
    missing = n - int(counts.sum())
    if missing > 0:
        order = np.lexsort((np.arange(p.size), -(scaled - counts)))
        counts[order[:missing]] += 1
    return TypeTable(counts, n)


def type_template(table: TypeTable) -> np.ndarray:
    """A canonical sequence with the given type: symbols in ascending order."""
    return np.repeat(np.arange(table.counts.size, dtype=np.int64), table.counts)


def is_typical(x: np.ndarray, p: np.ndarray, eps: float) -> bool:
    """Membership of the symbol block x (a one-dimensional integer array) in
    the eps-typical set of the pmf p: every symbol's frequency within eps of
    its probability."""
    if eps < 0:
        raise UsageError("typicality radius must be >= 0")
    x = np.asarray(x)
    size = len(p)
    if x.ndim != 1 or x.size < 1 or x.min() < 0 or x.max() >= size:
        raise UsageError(
            f"a symbol block must be one-dimensional, non-empty and below {size}, "
            "the length of the pmf"
        )
    freq = np.bincount(x, minlength=size) / float(x.size)
    return float(np.abs(freq - p).max()) <= eps + TYPE_TOL


def valid_jammer_types(
    t_y: TypeTable, spec: "ProblemSpec", f_eps: float, n: int
) -> np.ndarray:
    """Conditional jammer types T(j | x) whose induced Y-marginal is close to ``t_y``.

    Returns the tables T realizable at blocklength ``n`` (see
    :func:`_realizable_jammer_types`) with || [P_X T W]_Y - t_y ||_inf <=
    f_eps, as an (M, |X|, |J|) array in row-id order; M = 0 is legal.  The
    realizable tables depend only on (n, |X|, |J|), so they are enumerated
    once per blocklength and alphabet sizes and shared by every type; each
    call only filters them.  The exact count is checked against
    ``MAX_JAMMER_TYPES`` on every call, cached or not.
    """
    if f_eps < 0:
        raise UsageError("f_eps must be >= 0")
    x_size, j_size, y_size = spec.w.shape[:3]
    if t_y.counts.shape != (y_size,):
        raise UsageError("t_y is not a type over the Y alphabet")
    tables = _realizable_jammer_types(n, x_size, j_size)
    _check_count(len(tables), n)
    return tables[consistent_kernels(tables, t_y, spec, f_eps)]


def _check_count(count: int, n: int) -> None:
    if count > MAX_JAMMER_TYPES:
        raise EnumerationTooLargeError(
            f"more than {MAX_JAMMER_TYPES} jammer conditional types at n={n}"
        )


# a run works at one blocklength, or at the few rungs of a lemma ladder
@functools.lru_cache(maxsize=8)
def _realizable_jammer_types(n: int, x_size: int, j_size: int) -> np.ndarray:
    """Every conditional type T(j | x) realizable at blocklength ``n``, as a
    read-only (M, x_size, j_size) array in row-id order.

    A table is realizable when some split (c_x) of n over the source
    alphabet puts row x on the denominator-c_x grid; a symbol with c_x = 0
    leaves its row free, completed on the denominator-n grid.  In lowest
    terms row x has one denominator d_x, which divides c_x (n when c_x = 0),
    so the tables are partitioned by denominator tuple: each realizable
    tuple contributes the product of its rows, distinct from every other
    tuple's.  The tables are counted exactly, and ``EnumerationTooLargeError``
    raised, before any is built.
    """
    # every rational row with denominator <= n, once, in lowest terms; a row's
    # id ranks it by denominator, then by numerators, and ids_of[d] are the
    # ids of denominator d
    numer = np.array(
        [row for d in range(1, n + 1) for row in compositions(d, j_size) if math.gcd(*row) == 1],
        dtype=np.int64,
    )
    denom = numer.sum(axis=1)
    ids_of = np.split(np.arange(len(numer)), np.searchsorted(denom, np.arange(1, n + 1)))

    divisors = [[d for d in range(1, n + 1) if (c or n) % d == 0] for c in range(n + 1)]
    tuples = set()
    for split in compositions(n, x_size):
        tuples.update(itertools.product(*(divisors[c] for c in split)))
    _check_count(sum(math.prod(len(ids_of[d]) for d in t) for t in tuples), n)

    grids = (np.meshgrid(*(ids_of[d] for d in t), indexing="ij") for t in tuples)
    ids = np.concatenate([np.stack(g, axis=-1).reshape(-1, x_size) for g in grids])
    ids = ids[np.lexsort(ids.T[::-1])]  # row-id order: tables sorted by their rows' ids
    tables = numer[ids] / denom[ids][..., None]
    tables.setflags(write=False)
    return tables


def consistent_kernels(
    kernels: np.ndarray, t_y: TypeTable, spec: "ProblemSpec", f_eps: float
) -> np.ndarray:
    """Mask of the jammer kernels, shape (N, |X|, |J|), whose induced
    Y-marginal [P_X q W]_Y lies within ``f_eps`` of ``t_y`` in l-infinity."""
    margins = np.einsum(
        "x,nxj,xjy->ny", spec.p_x, kernels, spec.w.sum(axis=3), optimize=True
    )
    return np.abs(margins - t_y.probabilities[None, :]).max(axis=1) <= f_eps + TYPE_TOL
