"""Exact solver for zero-sum games that are bilinear over products of simplices.

The maximizer's side of the game is a small linear program, solved by a
dense-tableau simplex method with Bland's rule, which terminates in a finite
number of pivots.  The minimizer's strategy is read from the dual.  Both
strategies are normalised to per-block pmfs, and the value is certified
from them against the original payoff: the minimizer's guarantee is an
upper bound, the maximizer's a lower bound, and the reported duality gap is
their difference (zero up to rounding).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, UsageError

__all__ = ["GameResult", "solve_bilinear_game"]

# Pivot and optimality tolerance on the payoff scaled to [0, 1].
_EPS = 1e-12


@dataclass(frozen=True)
class GameResult:
    """Certified solve of a bilinear minimax game.

    ``value`` is the level the minimizer's strategy guarantees (an upper
    certificate); ``duality_gap`` is the distance to the level the
    maximizer's strategy guarantees, so the true value lies within
    ``duality_gap`` of ``value``.  ``iterations`` counts simplex pivots.
    """

    value: float
    min_strategy: tuple[np.ndarray, ...]
    max_strategy: tuple[np.ndarray, ...]
    duality_gap: float
    iterations: int


def _block_pmfs(x: np.ndarray, blocks: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """Normalise each block of a non-negative vector; an all-zero block
    becomes uniform."""
    parts = np.split(np.maximum(x, 0.0), np.cumsum(blocks)[:-1])
    return tuple(p / p.sum() if p.sum() > 0 else np.full(p.size, 1.0 / p.size) for p in parts)


def solve_bilinear_game(matrix, min_blocks: tuple[int, ...], max_blocks: tuple[int, ...]) -> GameResult:
    """Solve min over sigma, max over q of sigma' M q exactly, where sigma
    and q are the concatenated per-block pmfs of the minimizing and the
    maximizing player: M = ``matrix`` has one row per coordinate of the
    ``min_blocks`` and one column per coordinate of the ``max_blocks``.

    With M' = M - min(M, 0) >= 0 (a shift of the value by a constant), the
    maximizer solves

        max sum_c s_c  s.t.  s_c(i) - (M' q)_i <= 0 for each min coordinate i,
                             sum_{k in x} q_k <= 1 for each max block x,
                             q, s >= 0,

    where c(i) is the min block of coordinate i.  Every right-hand side is
    non-negative, so the slack basis is feasible and one phase suffices.
    Bland's rule (lowest-index entering column, lowest basis index among
    tied ratios) rules out cycling.  The minimizer's sigma is the dual
    solution: the reduced costs of the first dim_min slacks.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        raise NumericError("game payoff matrix has non-finite entries")
    if m.shape != (sum(min_blocks), sum(max_blocks)):
        raise UsageError(
            f"payoff matrix shape {m.shape} does not match block sizes {min_blocks} x {max_blocks}"
        )
    if any(b < 1 for b in min_blocks + max_blocks):
        raise UsageError("every simplex block must have size >= 1")
    n_min, n_max = m.shape
    n_c, n_x = len(min_blocks), len(max_blocks)
    shifted = m - min(m.min(), 0.0)
    if shifted.max() > 0:  # scale so that one tolerance fits every game
        shifted = shifted / shifted.max()
    rows = n_min + n_x
    cols = n_max + n_c + rows
    # tableau rows: constraints, then the objective row z - sum_c s_c = 0
    t = np.zeros((rows + 1, cols + 1))
    t[:n_min, :n_max] = -shifted
    t[np.arange(n_min), n_max + np.repeat(np.arange(n_c), min_blocks)] = 1.0
    t[n_min + np.repeat(np.arange(n_x), max_blocks), np.arange(n_max)] = 1.0
    t[:rows, n_max + n_c : cols] = np.eye(rows)
    t[n_min:rows, -1] = 1.0
    t[-1, n_max : n_max + n_c] = -1.0
    basis = np.arange(n_max + n_c, cols)
    pivots = 0
    while True:
        entering = np.flatnonzero(t[-1, :-1] < -_EPS)
        if entering.size == 0:
            break
        j = entering[0]
        candidates = np.flatnonzero(t[:rows, j] > _EPS)
        if candidates.size == 0 or pivots > 100 * cols:
            raise NumericError("simplex solve of the game did not terminate")
        ratios = t[candidates, -1] / t[candidates, j]
        tied = candidates[ratios <= ratios.min() + _EPS]
        r = tied[np.argmin(basis[tied])]
        t[r] /= t[r, j]
        pivot_row = t[r].copy()
        t -= np.outer(t[:, j], pivot_row)
        t[r] = pivot_row
        basis[r] = j
        pivots += 1
    primal = np.zeros(cols)
    primal[basis] = t[:rows, -1]
    sigma = _block_pmfs(t[-1, n_max + n_c : n_max + n_c + n_min], min_blocks)
    q = _block_pmfs(primal[:n_max], max_blocks)
    # certificate against the original payoff
    max_starts = np.cumsum((0,) + max_blocks[:-1])
    min_starts = np.cumsum((0,) + min_blocks[:-1])
    upper = float(np.maximum.reduceat(np.concatenate(sigma) @ m, max_starts).sum())
    lower = float(np.minimum.reduceat(m @ np.concatenate(q), min_starts).sum())
    return GameResult(
        value=upper,
        min_strategy=sigma,
        max_strategy=q,
        duality_gap=max(upper - lower, 0.0),
        iterations=pivots,
    )
