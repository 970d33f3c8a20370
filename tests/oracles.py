"""Independent oracles used by multiple test modules."""

import itertools
from fractions import Fraction

import numpy as np


def matrix_game_value_oracle(payoff: np.ndarray) -> float:
    """Exact value of min_sigma max_q sigma' B q by support enumeration.

    For every pair of supports, solve the equalization system for a
    candidate equilibrium and keep it if it satisfies all inequality
    conditions.  Independent of the simplex solver.
    """
    m, n = payoff.shape
    best = None
    for r_support in _supports(m):
        for c_support in _supports(n):
            res = _try_supports(payoff, r_support, c_support)
            if res is not None:
                best = res
                break
        if best is not None:
            break
    assert best is not None, "support enumeration failed to find an equilibrium"
    return best


def vertex_expanded_matrix(payoff: np.ndarray, min_blocks, max_blocks) -> np.ndarray:
    """Payoff of every pair of deterministic strategies of a game that is
    bilinear over products of simplices; its matrix-game value equals the
    product game's value, since the payoff depends only on per-block
    marginals."""

    def vertices(blocks):
        offsets = np.cumsum((0,) + tuple(blocks[:-1]))
        for v in itertools.product(*(range(b) for b in blocks)):
            yield [o + k for o, k in zip(offsets, v)]

    return np.array(
        [[payoff[np.ix_(a, b)].sum() for b in vertices(max_blocks)] for a in vertices(min_blocks)]
    )


def min_e_over_zeta_oracle(spec, p_arr: np.ndarray, q_arr: np.ndarray) -> np.ndarray:
    """min over reconstruction maps of E[d] for every (policy, jammer) pair,
    straight from the joint p(x, u, z) of each pair: the best reconstruction
    is chosen per (u, z) cell.  Shape (policies, jammers)."""
    c = np.einsum("x,nxj,xjyz,pyu->pnxuz", spec.p_x.mass, q_arr, spec.w.kernel, p_arr)
    per_hat = np.einsum("pnxuz,xh->pnuzh", c, spec.d.entries)
    return per_hat.min(axis=-1).sum(axis=(-2, -1))


def _supports(k):
    for size in range(1, k + 1):
        for combo in itertools.combinations(range(k), size):
            yield combo


def _try_supports(b, rows, cols):
    nr, nc = len(rows), len(cols)
    # unknowns: sigma over rows, v ; equalities: (B' sigma)_c = v on cols,
    # sum sigma = 1; then check optimality inequalities both ways.
    a = np.zeros((nc + 1, nr + 1))
    rhs = np.zeros(nc + 1)
    for i, c in enumerate(cols):
        a[i, :nr] = b[list(rows), c]
        a[i, nr] = -1.0
    a[nc, :nr] = 1.0
    rhs[nc] = 1.0
    sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
    if not np.allclose(a @ sol, rhs, atol=1e-9):
        return None
    sigma = np.zeros(b.shape[0])
    sigma[list(rows)] = sol[:nr]
    v = sol[nr]
    if np.any(sigma < -1e-9):
        return None
    # column player must not gain outside its support, row player must not
    # drop below v by deviating
    col_values = sigma @ b
    if np.any(col_values > v + 1e-9):
        return None
    aq = np.zeros((nr + 1, nc + 1))
    rhs2 = np.zeros(nr + 1)
    for i, r in enumerate(rows):
        aq[i, :nc] = b[r, list(cols)]
        aq[i, nc] = -1.0
    aq[nr, :nc] = 1.0
    rhs2[nr] = 1.0
    solq, *_ = np.linalg.lstsq(aq, rhs2, rcond=None)
    if not np.allclose(aq @ solq, rhs2, atol=1e-9):
        return None
    q = np.zeros(b.shape[1])
    q[list(cols)] = solq[:nc]
    if np.any(q < -1e-9):
        return None
    row_values = b @ q
    if np.any(row_values < v - 1e-9):
        return None
    return float(v)


def jammer_types_oracle(n: int, x_size: int, j_size: int) -> set:
    """Every conditional type T(j|x) realizable at blocklength n, as a set of
    row tuples of exact Fractions.

    Brute force straight from the definition: for each split (c_x) of n over
    the source alphabet, row x runs over every count row summing to c_x,
    read as counts / c_x; a symbol with c_x = 0 never occurs, so its row is
    free and runs over every count row of n instead.
    """
    out = set()
    for counts in _count_rows(n, x_size):
        per_row = []
        for c in counts:
            denominator = c if c > 0 else n
            rows = _count_rows(denominator, j_size)
            per_row.append([tuple(Fraction(v, denominator) for v in row) for row in rows])
        out.update(itertools.product(*per_row))
    return out


def _count_rows(total, parts):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    return [
        combo
        for combo in itertools.product(range(total + 1), repeat=parts)
        if sum(combo) == total
    ]
