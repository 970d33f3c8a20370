"""Single-letter minimax quantities: worst-case distortion floors, the
jamming-robust rate bounds, and the per-type codebook rates.

The distortion floors are bilinear games solved exactly by the simplex
method, each with a duality-gap certificate.  The rate bounds are nested
optimizations over an auxiliary policy p(u|y) and a jamming kernel q(j|x).
For a fixed policy the information term I(U;Y|Z) = H(U|Z) - H(U|Y) is
concave in q, because U - Y - Z is a Markov chain: H(U|Y) is linear in q and
H(U|Z) is concave in p(u,z), which is linear in q.  The code does not yet
exploit this: both bounds are found by a grid search over policies and
jammers with one local refinement pass, and every reported value carries a
grid-resolution uncertainty (the observed refinement shift plus a
step-resolution floor), not a proven enclosure.  Distortion feasibility is
checked only on deterministic jammers, which is exact because expected
distortion is linear in the jamming kernel.

The policy x jammer tables do not depend on the distortion level.  One
:class:`RateBoundSolver` per auxiliary size builds each of them once and
serves a whole sweep, and both bounds when their auxiliary sizes agree.
I(U;Y|Z) has one evaluator, the Markov-chain identity
I(U;Y|Z) = H(U,Z) - H(Z) - H(U|Y).  It loops in Python over the alphabet
cells, so every numpy operation is elementwise over the (policy, jammer)
cells and a cell's bits never depend on which policies, jammers or chunk it
is evaluated with: a single cell, a row or a refinement window reads exactly
what the full table holds, and the searches take plain argmins and argmaxes.

That invariant lets the searches evaluate a cell only where a decision reads
it.  At |U| = 2 a policy and its U-label swap have bit-equal rows, so the
policy tables evaluate one row per swap orbit and copy the other.  The upper
bound's refinement bounds every window policy's row maximum from below by a
few jammer columns and evaluates full rows only until no other policy can
win the argmin.  The lower bound keeps the tables of its last jammer window,
which consecutive levels often share.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import EnumerationTooLargeError, InfeasibleDistortionError, UsageError
from .games import GameResult, solve_bilinear_game
from .model import AuxiliaryPolicy, ProblemSpec
from .mtypes import TypeTable, compositions, consistent_kernels, deterministic_maps
from .probability import mutual_information_bits, xlog2x

__all__ = [
    "GridConfig",
    "RateBoundSolver",
    "PerTypeRates",
    "BoundPoint",
    "BoundReport",
    "minimax_distortion_game",
    "joint_uz",
    "per_type_rates",
    "compute_bound_report",
    "simplex_lattice",
    "simplex_window",
    "column_product",
]

# Slack added to distortion-feasibility comparisons so exactly attained
# constraints survive float rounding.
DISTORTION_TOL = 1e-9

# Largest policy or jammer grid enumerated before giving up with
# EnumerationTooLargeError.
MAX_CANDIDATES = 1_000_000

# What shrinks each grid that column_product builds, for its error message.
_SHRINK = {
    "policy grid": "a coarser --coarse-step or a smaller auxiliary alphabet",
    "jammer lattice": "a coarser --coarse-step",
    "refinement window": "a coarser --refine-step",
}

# Cells of one chunk of a policy x jammer table (2 MB of float64), so that a
# chunk and its temporaries stay near the cache whatever the grid size.
CHUNK_CELLS = 1 << 18

# Jammer columns whose values bound the refined policies' row maxima from
# below before any full row is evaluated.
SEED_COLUMNS = 8


@dataclass(frozen=True)
class GridConfig:
    """Resolution of the simplex searches.

    Steps must divide 1, and the refine step must divide the coarse step so
    that every coarse point stays on the refined lattice.
    """

    coarse_step: float = 0.05
    refine_step: float = 0.005
    refine: bool = True

    def __post_init__(self) -> None:
        for name, step in (("coarse_step", self.coarse_step), ("refine_step", self.refine_step)):
            if not (0 < step <= 1):
                raise UsageError(f"{name} must lie in (0, 1]")
            m = round(1.0 / step)
            if abs(step * m - 1.0) > 1e-9:
                raise UsageError(f"{name}={step} does not divide 1")
        ratio = self.coarse_step / self.refine_step
        if abs(ratio - round(ratio)) > 1e-9 or ratio < 1:
            raise UsageError("refine_step must divide coarse_step")


def simplex_lattice(dim: int, step: float) -> np.ndarray:
    """All points of the step-lattice on the probability simplex, in
    lexicographic order of their integer coordinates."""
    m = round(1.0 / step)
    points = [np.array(c, dtype=np.float64) / m for c in compositions(m, dim)]
    return np.stack(points)


def simplex_window(center: np.ndarray, step: float, radius: float) -> np.ndarray:
    """Lattice points of ``step`` on the simplex within l-infinity ``radius``
    of ``center``.  If ``center`` is itself on the lattice it is included."""
    center = np.asarray(center, dtype=np.float64)
    m = round(1.0 / step)
    lo = [max(0, math.ceil((c - radius) * m - 1e-9)) for c in center]
    hi = [min(m, math.floor((c + radius) * m + 1e-9)) for c in center]
    out = list(compositions(m, center.size, lo, hi))
    if not out:
        return center.reshape(1, -1)
    return np.array(out, dtype=np.float64) / m


def column_product(column_grids: list[np.ndarray], name: str) -> np.ndarray:
    """Cartesian product of per-column simplex grids; ``name`` (a key of
    ``_SHRINK``) says which grid it is when it would exceed MAX_CANDIDATES.

    Returns shape (N, columns, dim); candidate order is lexicographic in the
    per-column indices, which fixes all tie-breaking downstream.
    """
    sizes = [g.shape[0] for g in column_grids]
    total = math.prod(sizes)
    if total > MAX_CANDIDATES:
        raise EnumerationTooLargeError(
            f"{name} would hold {total} candidates (> {MAX_CANDIDATES}); use {_SHRINK[name]}"
        )
    out = np.empty((total, len(column_grids), column_grids[0].shape[1]))
    for c, g in enumerate(column_grids):
        reps_after = math.prod(sizes[c + 1 :])
        reps_before = math.prod(sizes[:c])
        out[:, c, :] = np.tile(np.repeat(g, reps_after, axis=0), (reps_before, 1))
    return out


def _chunks(count: int, cells_each: int) -> Iterator[slice]:
    """Consecutive slices of about CHUNK_CELLS cells over ``count`` items of
    ``cells_each`` cells; the first is the widest."""
    step = max(1, CHUNK_CELLS // max(1, cells_each))
    for lo in range(0, count, step):
        yield slice(lo, min(lo + step, count))


def _cell_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of ``terms`` in list order."""
    return functools.reduce(np.add, terms)


def _refine_window(center: np.ndarray, grid: GridConfig) -> np.ndarray:
    """Kernels on the refine-step lattice within one coarse step of
    ``center`` in every row: the neighbourhood of one refinement pass."""
    cols = [simplex_window(row, grid.refine_step, grid.coarse_step) for row in center]
    return column_product(cols, "refinement window")


# ---------------------------------------------------------------------------
# distortion floors


def minimax_distortion_game(spec: ProblemSpec, observe_y: bool) -> GameResult:
    """Estimator-vs-jammer expected distortion game.

    The estimator picks a pmf over reconstructions per observed context
    ((y, z) when ``observe_y``, else z alone); the jammer picks a kernel
    q(j|x).  The payoff is E[d], bilinear in the two kernels.
    """
    nx, nj, ny, nz = spec.w.shape
    nh = spec.d.shape[1]
    if observe_y:
        w_ctx = spec.w.reshape(nx, nj, ny * nz)
    else:
        w_ctx = spec.w.sum(axis=2)
    n_ctx = w_ctx.shape[2]
    # payoff[(ctx, xhat), (x, j)] = p(x) w(ctx|x,j) d(x, xhat)
    b = np.einsum("x,xjc,xh->chxj", spec.p_x, w_ctx, spec.d)
    matrix = b.reshape(n_ctx * nh, nx * nj)
    return solve_bilinear_game(matrix, (nh,) * n_ctx, (nj,) * nx)


# ---------------------------------------------------------------------------
# rate bounds


@dataclass(frozen=True)
class _RatePoint:
    value: float
    uncertainty: float
    p_u_given_y: np.ndarray
    zeta: np.ndarray | None
    q_extreme: np.ndarray


class RateBoundSolver:
    """Shared grids and information tables for the two rate bounds of one
    instance at one auxiliary-alphabet size.

    Building the candidate-policy x candidate-jammer tables is the
    expensive part; they do not depend on the distortion level, so one
    solver instance amortizes them over a whole distortion sweep.  The
    coarse I(U;Y|Z) table holds every cell, evaluated once per U-swap orbit
    at |U| = 2.  Refinement evaluates, per level, the upper bound's window
    policies on a few seed jammers and full rows for as few of them as the
    argmin needs, and the lower bound's jammer window against every coarse
    policy, once per window centre.
    """

    def __init__(
        self,
        spec: ProblemSpec,
        u_size: int,
        grid: GridConfig | None = None,
    ) -> None:
        if u_size < 1:
            raise UsageError("auxiliary alphabet size must be >= 1")
        self.spec = spec
        self.u_size = u_size
        self.grid = grid or GridConfig()
        nx, nj, _, nz = spec.w.shape
        self._zeta_maps = deterministic_maps(u_size * nz, spec.d.shape[1])
        self._det_jammers = deterministic_maps(nx, nj)
        self._p_cache: np.ndarray | None = None
        self._q_cache: np.ndarray | None = None
        self._i_matrix_cache: np.ndarray | None = None
        self._max_e_cache: np.ndarray | None = None
        self._min_e_cache: np.ndarray | None = None
        # the lower bound's last jammer window: (centre index, window, min-E
        # table, information table)
        self._window_cache: tuple[int, np.ndarray, np.ndarray, np.ndarray] | None = None

    # -- shared tables ------------------------------------------------------

    @property
    def _p_candidates(self) -> np.ndarray:
        if self._p_cache is None:
            col_u = simplex_lattice(self.u_size, self.grid.coarse_step)
            self._p_cache = column_product([col_u] * self.spec.w.shape[2], "policy grid")
        return self._p_cache

    @property
    def _q_candidates(self) -> np.ndarray:
        if self._q_cache is None:
            col_j = simplex_lattice(self.spec.w.shape[1], self.grid.coarse_step)
            self._q_cache = column_product([col_j] * self.spec.w.shape[0], "jammer lattice")
        return self._q_cache

    def _info_matrix(self, p_arr: np.ndarray, q_arr: np.ndarray) -> np.ndarray:
        """I(U;Y|Z) = H(U,Z) - H(Z) - H(U|Y) for every (policy, jammer) pair;
        shape (NP, NQ).

        The sums over the alphabet cells run in a fixed order and every
        array operation is elementwise, so each entry is bit-equal whatever
        else is evaluated with it.  The u-terms of each z (and of each y) are
        summed before they are accumulated, which makes a row invariant to
        swapping two U labels.
        """
        spec = self.spec
        np_, nq = p_arr.shape[0], q_arr.shape[0]
        nx, nj, ny, nz = spec.w.shape
        nu = self.u_size
        weights = spec.p_x[:, None, None, None] * spec.w  # p(x) w(y,z|x,j)
        # p(y, z) of every jammer, one (NQ,) column per (y, z) cell
        p_yz = [
            [
                _cell_sum([q_arr[:, x, j] * weights[x, j, y, z] for x in range(nx) for j in range(nj)])
                for z in range(nz)
            ]
            for y in range(ny)
        ]
        p_y = [_cell_sum(p_yz[y]) for y in range(ny)]
        minus_h_z = _cell_sum([xlog2x(_cell_sum([p_yz[y][z] for y in range(ny)])) for z in range(nz)])
        # p(u|y) as (NP,) columns, and -H(U|Y=y) of every policy
        p_cols = [[np.ascontiguousarray(p_arr[:, y, u]) for u in range(nu)] for y in range(ny)]
        minus_h_u_y = [_cell_sum([xlog2x(col) for col in p_cols[y]]) for y in range(ny)]
        out = np.empty((np_, nq))
        buffers = None
        for chunk in _chunks(nq, np_):
            shape = (np_, chunk.stop - chunk.start)
            if buffers is None:
                buffers = np.empty((4, shape[0] * shape[1]))
            acc, z_sum, p_uz, term = (b[: shape[0] * shape[1]].reshape(shape) for b in buffers)
            # -H(U|Y) - H(Z) + H(U,Z), accumulated cell by cell
            acc.fill(0.0)
            for y in range(ny):
                acc += np.multiply(minus_h_u_y[y][:, None], p_y[y][chunk], out=term)
            acc += minus_h_z[chunk]
            for z in range(nz):
                for u in range(nu):
                    # p(u, z) = sum over y of p(u|y) p(y, z)
                    np.multiply(p_cols[0][u][:, None], p_yz[0][z][chunk], out=p_uz)
                    for y in range(1, ny):
                        p_uz += np.multiply(p_cols[y][u][:, None], p_yz[y][z][chunk], out=term)
                    if u == 0:
                        xlog2x(p_uz, out=z_sum)
                    else:
                        z_sum += xlog2x(p_uz, out=term)
                acc -= z_sum
            np.maximum(acc, 0.0, out=out[:, chunk])
        return out

    def _max_e_over_jammers(self, p_arr: np.ndarray) -> np.ndarray:
        """max over deterministic jammers of E[d]; shape (NP, n_zeta)."""
        spec = self.spec
        nx, _, _, nz = spec.w.shape
        w_det = spec.w[np.arange(nx)[:, None], self._det_jammers.T].transpose(1, 0, 2, 3)
        # w_det: (V, X, Y, Z)
        c = np.einsum("x,vxyz,pyu->pvxuz", spec.p_x, w_det, p_arr, optimize=True)
        zeta = self._zeta_maps.reshape(-1, self.u_size, nz)
        d_f = spec.d[:, zeta]  # (X, F, U, Z)
        e = np.einsum("pvxuz,xfuz->pfv", c, d_f, optimize=True)
        return e.max(axis=2)

    def _min_e_over_zeta(self, p_arr: np.ndarray, q_arr: np.ndarray) -> np.ndarray:
        """min over reconstruction maps of E[d], per (policy, jammer) pair.

        The best map decomposes per (u, z) cell for a fixed jammer, so no
        explicit enumeration is needed; shape (NP, NQ).
        """
        spec = self.spec
        np_, nq = p_arr.shape[0], q_arr.shape[0]
        _, _, ny, nz = spec.w.shape
        nu, nh = self.u_size, spec.d.shape[1]
        # E[d(X, xhat); Y=y, Z=z] under each jammer, shape (Z, Y, Xhat, N)
        cost = np.einsum(
            "x,nxj,xjyz,xh->zyhn",
            spec.p_x, q_arr, spec.w, spec.d, optimize=True,
        )
        p_cols = [np.ascontiguousarray(p_arr[:, :, u]) for u in range(nu)]  # (P, Y) each
        out = np.empty((np_, nq))
        for chunk in _chunks(nq, np_ * nh):
            n = chunk.stop - chunk.start
            rhs = [cost[z, :, :, chunk].reshape(ny, nh * n) for z in range(nz)]
            # the best reconstruction of each (u, z) cell, summed over the cells
            total = np.zeros((np_, n))
            for u in range(nu):
                for z in range(nz):
                    total += (p_cols[u] @ rhs[z]).reshape(np_, nh, n).min(axis=1)
            out[:, chunk] = total
        return out

    @functools.cached_property
    def _u_swap(self) -> np.ndarray:
        """Index of each coarse policy's U-label swap, at |U| = 2: the swap
        maps lattice point (a, m - a) of every column to (m - a, a), read off
        the integer lattice rather than compared as floats."""
        m = round(1.0 / self.grid.coarse_step)
        col = list(compositions(m, 2))
        position = {c: i for i, c in enumerate(col)}
        flip = np.array([position[c[::-1]] for c in col])
        shape = (len(col),) * self.spec.w.shape[2]
        digits = np.unravel_index(np.arange(math.prod(shape)), shape)
        return np.ravel_multi_index(tuple(flip[d] for d in digits), shape)

    def _policy_table(self, q_arr: np.ndarray) -> np.ndarray:
        """I(U;Y|Z) of every coarse policy against ``q_arr``; shape (NP, NQ).

        At |U| = 2 a policy's row and its U-label swap's row are bit-equal
        (see :meth:`_info_matrix`), so one row per swap orbit is evaluated,
        in blocks of about CHUNK_CELLS cells, and copied to its mirror.
        """
        p_arr = self._p_candidates
        if self.u_size != 2:
            return self._info_matrix(p_arr, q_arr)
        mirror = self._u_swap
        rows = np.arange(mirror.size)
        table = np.empty((p_arr.shape[0], q_arr.shape[0]))
        reps = rows[mirror >= rows]
        for block in _chunks(reps.size, q_arr.shape[0]):
            table[reps[block]] = self._info_matrix(p_arr[reps[block]], q_arr)
        for r in rows[mirror < rows]:
            table[r] = table[mirror[r]]
        return table

    @property
    def info_matrix(self) -> np.ndarray:
        """I(U;Y|Z) of every coarse policy against every coarse jammer."""
        if self._i_matrix_cache is None:
            self._i_matrix_cache = self._policy_table(self._q_candidates)
        return self._i_matrix_cache

    @property
    def max_e_matrix(self) -> np.ndarray:
        if self._max_e_cache is None:
            self._max_e_cache = self._max_e_over_jammers(self._p_candidates)
        return self._max_e_cache

    @property
    def min_e_matrix(self) -> np.ndarray:
        if self._min_e_cache is None:
            self._min_e_cache = self._min_e_over_zeta(self._p_candidates, self._q_candidates)
        return self._min_e_cache

    # -- helpers ------------------------------------------------------------

    @staticmethod
    def _max_min_column(info: np.ndarray, feas: np.ndarray) -> tuple[int, int] | None:
        """The first jammer column whose smallest information over its
        feasible policies is largest, and the first policy attaining that
        smallest value; None when no jammer has a feasible policy."""
        inner = info.min(axis=0, initial=np.inf, where=feas)
        reachable = np.isfinite(inner)
        if not reachable.any():
            return None
        c = int(np.argmax(np.where(reachable, inner, -np.inf)))
        return c, int(np.argmin(np.where(feas[:, c], info[:, c], np.inf)))

    def _least_row_max(self, p_arr: np.ndarray, hint: np.ndarray) -> tuple[int, np.ndarray]:
        """``np.argmin`` over the largest I(U;Y|Z) of each policy in
        ``p_arr`` against the coarse jammers, with the winner's row.

        Only some rows are evaluated.  Each policy's maximum over a few seed
        columns, the largest entries of ``hint``, bounds its row maximum from
        below with the bits of the full row.  Full rows are evaluated in
        ascending (bound, index) order until the next bound exceeds the best
        maximum found, or equals it at a larger index, so that no remaining
        policy can win or tie to the first index.
        """
        q_arr = self._q_candidates
        seeds = np.argsort(hint, kind="stable")[-SEED_COLUMNS:]
        lower = self._info_matrix(p_arr, q_arr[seeds]).max(axis=1)
        best, best_row, best_max = -1, None, math.inf
        for k in map(int, np.argsort(lower, kind="stable")):
            if lower[k] > best_max or (lower[k] == best_max and k > best):
                break
            row = self._info_matrix(p_arr[k : k + 1], q_arr)[0]
            top = float(row.max())
            if top < best_max or (top == best_max and k < best):
                best, best_row, best_max = k, row, top
        return best, best_row

    def _uncertainty(self, refined: float, coarse: float) -> float:
        g = self.grid
        step = g.refine_step if g.refine else g.coarse_step
        return abs(refined - coarse) + step * math.log2(1.0 / step)

    # -- upper bound --------------------------------------------------------

    def r_upper_point(self, distortion: float) -> _RatePoint:
        """Upper bound at a level in [0, d1]: the policy must meet the level
        against every jammer, and its rate is the worst-case I(U;Y|Z) over
        jammers.  Above d1 the rate is zero, which :func:`compute_bound_report`
        reports without consulting the solver."""
        if distortion < 0:
            raise UsageError("distortion level must be >= 0")
        spec = self.spec
        feas = self.max_e_matrix <= distortion + DISTORTION_TOL  # (NP, F)
        feas_p = feas.any(axis=1)
        if not feas_p.any():
            raise InfeasibleDistortionError(
                f"no (policy, map) candidate meets E[d] <= {distortion} for every jammer; "
                "the level is below the reachable floor at this grid"
            )
        worst = np.where(feas_p, self.info_matrix.max(axis=1), np.inf)
        p0 = int(np.argmin(worst))
        row = self.info_matrix[p0]
        v0 = float(worst[p0])
        best_p = self._p_candidates[p0]
        best_f = int(np.argmax(feas[p0]))
        value = v0
        if self.grid.refine:
            local = _refine_window(best_p, self.grid)
            feas_local = self._max_e_over_jammers(local) <= distortion + DISTORTION_TOL
            ok = np.flatnonzero(feas_local.any(axis=1))
            if ok.size:
                k, row = self._least_row_max(local[ok], row)
                p1 = int(ok[k])
                best_p = local[p1]
                best_f = int(np.argmax(feas_local[p1]))
                value = float(row.max())
            q_inc = self._q_candidates[int(np.argmax(row))]
            q_local = _refine_window(q_inc, self.grid)
            inner_vals = self._info_matrix(best_p[None], q_local)[0]
            value = max(value, float(inner_vals.max()))
            q_worst = q_local[int(np.argmax(inner_vals))]
        else:
            q_worst = self._q_candidates[int(np.argmax(row))]
        zeta = self._zeta_maps[best_f].reshape(self.u_size, spec.w.shape[3])
        return _RatePoint(value, self._uncertainty(value, v0), best_p, zeta, q_worst)

    # -- lower bound --------------------------------------------------------

    def r_lower_point(self, distortion: float) -> _RatePoint:
        """Lower bound at a level in [0, d1], like :meth:`r_upper_point`, but
        the jammer commits first and the policy need only meet the level
        against that jammer."""
        if distortion < 0:
            raise UsageError("distortion level must be >= 0")
        feas = self.min_e_matrix <= distortion + DISTORTION_TOL  # (NP, NQ)
        if (~feas.any(axis=0)).any():
            raise InfeasibleDistortionError(
                "some jammer kernels admit no feasible policy on the grid; "
                "the level is below the reachable floor"
            )
        info = self.info_matrix
        n0, p_idx = self._max_min_column(info, feas)
        best_q = self._q_candidates[n0]
        best_p = self._p_candidates[p_idx]
        v0 = value = float(info[p_idx, n0])
        if self.grid.refine:
            q_local, min_e_ql, info_ql = self._jammer_window(n0)
            feas_ql = min_e_ql <= distortion + DISTORTION_TOL
            found = self._max_min_column(info_ql, feas_ql)
            if found is not None:
                n1, p_idx = found
                best_q = q_local[n1]
                best_p = self._p_candidates[p_idx]
                value = float(info_ql[p_idx, n1])
            # polish the cooperative side at the chosen jammer
            p_local = _refine_window(best_p, self.grid)
            feas_pl = self._min_e_over_zeta(p_local, best_q[None])[:, 0] <= distortion + DISTORTION_TOL
            if feas_pl.any():
                info_pl = self._info_matrix(p_local, best_q[None])[:, 0]
                masked = np.where(feas_pl, info_pl, np.inf)
                p2 = int(np.argmin(masked))
                if masked[p2] < value:
                    value = float(masked[p2])
                    best_p = p_local[p2]
        zeta = self._best_zeta(best_p, best_q)
        return _RatePoint(value, self._uncertainty(value, v0), best_p, zeta, best_q)

    def _jammer_window(self, n0: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The refine window around coarse jammer ``n0`` with its min-E and
        I(U;Y|Z) tables against every coarse policy.  The tables do not
        depend on the level and neighbouring levels often share a centre, so
        the last centre's are kept."""
        if self._window_cache is None or self._window_cache[0] != n0:
            q_local = _refine_window(self._q_candidates[n0], self.grid)
            min_e = self._min_e_over_zeta(self._p_candidates, q_local)
            self._window_cache = (n0, q_local, min_e, self._policy_table(q_local))
        return self._window_cache[1:]

    def _best_zeta(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        spec = self.spec
        c = np.einsum(
            "x,xj,xjyz,yu->xuz", spec.p_x, q, spec.w, p, optimize=True
        )
        per_hat = np.einsum("xuz,xh->uzh", c, spec.d, optimize=True)
        return np.argmin(per_hat, axis=-1).astype(np.int64)


def _zero_rate_point(spec: ProblemSpec, u_size: int) -> _RatePoint:
    """The rate-zero point above d1: a constant policy, no reconstruction map
    and the uniform jammer."""
    nx, nj, ny, _ = spec.w.shape
    const_policy = np.full((ny, u_size), 1.0 / u_size)
    uniform_q = np.full((nx, nj), 1.0 / nj)
    return _RatePoint(0.0, 0.0, const_policy, None, uniform_q)


# ---------------------------------------------------------------------------
# per-type codebook rates


def joint_uz(spec: ProblemSpec, kernels: np.ndarray, p_uy: np.ndarray) -> np.ndarray:
    """The (U, Z) joint p(u, z) under each jammer kernel: (N, |X|, |J|) kernels
    and a (Y, U) policy matrix give (N, U, Z)."""
    return np.einsum(
        "x,nxj,xjyz,yu->nuz", spec.p_x, kernels, spec.w, p_uy, optimize=True
    )


@dataclass(frozen=True)
class PerTypeRates:
    """Codebook rate, bin-resolution rate and their difference for one
    observed type; ``no_feasible_jammer`` marks an empty consistency set, in
    which case the resolution rate is an infinite sentinel and the bin rate
    is clamped to zero."""

    r_u: float
    r_tilde: float
    r_bin: float
    no_feasible_jammer: bool


def per_type_rates(
    t_y: TypeTable,
    policy: AuxiliaryPolicy,
    spec: ProblemSpec,
    eps: float,
    f_eps: float,
    grid: GridConfig | None = None,
) -> PerTypeRates:
    """Rates of the binned codebook attached to one observed type.

    The codebook rate is I(U;Y) under the observed type plus eps/4; the
    within-bin resolution rate is the smallest I(U;Z) over jammer kernels
    whose induced Y-marginal stays within ``f_eps`` of the type, minus eps/4.
    Both are clamped at zero.
    """
    if eps <= 0:
        raise UsageError("eps must be > 0")
    if f_eps < 0:
        raise UsageError("f_eps must be >= 0")
    grid = grid or GridConfig()
    p_uy = policy.p_u_given_y  # (Y, U)
    t_probs = t_y.probabilities
    if t_probs.shape != (spec.w.shape[2],):
        raise UsageError("type table does not match the Y alphabet")
    joint_yu = t_probs[:, None] * p_uy
    r_u = max(0.0, float(mutual_information_bits(joint_yu)) + eps / 4.0)

    key = tuple((a.tobytes(), a.shape) for a in (spec.p_x, spec.w, spec.d, p_uy))
    q_arr, info = _coarse_uz_information(key, grid.coarse_step)
    mask = consistent_kernels(q_arr, t_y, spec, f_eps)
    if not mask.any():
        return PerTypeRates(r_u, math.inf, 0.0, True)
    vals = np.where(mask, info, np.inf)
    n0 = int(np.argmin(vals))
    best = float(vals[n0])
    if grid.refine:
        q_local = _refine_window(q_arr[n0], grid)
        mask_l = consistent_kernels(q_local, t_y, spec, f_eps)
        if mask_l.any():
            info_l = mutual_information_bits(joint_uz(spec, q_local, p_uy))
            best = min(best, float(np.where(mask_l, info_l, np.inf).min()))
    r_tilde = max(0.0, best - eps / 4.0)
    return PerTypeRates(r_u, r_tilde, r_u - r_tilde, False)


# a run codes with one (instance, policy) pair, or a few in the tests
@functools.lru_cache(maxsize=8)
def _coarse_uz_information(key: tuple, coarse_step: float) -> tuple[np.ndarray, np.ndarray]:
    """The coarse jammer lattice and the I(U;Z) of each of its kernels, as
    read-only arrays, for the (p_x, w, d, p(u|y)) tables whose (bytes, shape)
    pairs make up ``key``.  Neither depends on the observed type, so every
    type of a run shares them."""
    p_x, w, d, p_uy = (np.frombuffer(raw).reshape(shape) for raw, shape in key)
    spec = ProblemSpec(p_x, w, d)
    col_j = simplex_lattice(w.shape[1], coarse_step)
    q_arr = column_product([col_j] * w.shape[0], "jammer lattice")
    info = mutual_information_bits(joint_uz(spec, q_arr, p_uy))
    q_arr.setflags(write=False)
    info.setflags(write=False)
    return q_arr, info


# ---------------------------------------------------------------------------
# distortion-sweep report


@dataclass(frozen=True)
class BoundPoint:
    d: float
    feasible: bool
    r_upper: float | None
    r_lower: float | None
    uncertainty_upper: float | None
    uncertainty_lower: float | None
    strategy_upper: dict | None
    strategy_lower: dict | None


@dataclass(frozen=True)
class BoundReport:
    d0: float
    d1: float
    d0_gap: float
    d1_gap: float
    points: tuple[BoundPoint, ...]


def _strategy_dict(point: _RatePoint) -> dict:
    return {
        "p_u_given_y": point.p_u_given_y.tolist(),
        "zeta": None if point.zeta is None else point.zeta.tolist(),
        "jammer_q": point.q_extreme.tolist(),
    }


def compute_bound_report(
    spec: ProblemSpec,
    d_values: list[float] | tuple[float, ...] | np.ndarray | Callable[[float, float], list[float]],
    grid: GridConfig | None = None,
    u_size_upper: int | None = None,
    u_size_lower: int | None = None,
) -> BoundReport:
    """Evaluate both rate bounds over a distortion sweep.

    Points below the reachable floor are reported as infeasible rather than
    aborting the sweep; above d1 both rates are zero.  ``d_values`` may
    instead be a function of the floors (d0, d1) that returns the levels, for
    a sweep placed between them.  The auxiliary sizes default to
    |Xhat|^|Z| for the upper bound and |Y| + 1 for the lower one.
    """
    g0 = minimax_distortion_game(spec, True)
    g1 = minimax_distortion_game(spec, False)
    if callable(d_values):
        d_values = d_values(g0.value, g1.value)
    levels = [float(v) for v in d_values]
    if not all(map(math.isfinite, levels)):
        raise UsageError(f"distortion levels must be finite numbers, got {levels}")
    if u_size_upper is None:
        u_size_upper = spec.d.shape[1] ** spec.w.shape[3]
    if u_size_lower is None:
        u_size_lower = spec.w.shape[2] + 1
    # one solver per auxiliary size, so equal sizes share every table
    solvers = {u: RateBoundSolver(spec, u, grid) for u in {u_size_upper, u_size_lower}}
    solver_u, solver_l = solvers[u_size_upper], solvers[u_size_lower]
    points = []
    for d_val in levels:
        if d_val > g1.value:
            up = _zero_rate_point(spec, solver_u.u_size)
            low = _zero_rate_point(spec, solver_l.u_size)
        else:
            try:
                up = solver_u.r_upper_point(d_val)
                low = solver_l.r_lower_point(d_val)
            except InfeasibleDistortionError:
                points.append(BoundPoint(d_val, False, None, None, None, None, None, None))
                continue
        points.append(
            BoundPoint(
                d_val,
                True,
                up.value,
                low.value,
                up.uncertainty,
                low.uncertainty,
                _strategy_dict(up),
                _strategy_dict(low),
            )
        )
    return BoundReport(g0.value, g1.value, g0.duality_gap, g1.duality_gap, tuple(points))
