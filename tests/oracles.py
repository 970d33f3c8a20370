"""Independent oracles used by multiple test modules."""

import itertools
import math
from fractions import Fraction

import numpy as np

from avrs.bounds import DISTORTION_TOL, _refine_window
from avrs.errors import InfeasibleDistortionError
from avrs.mtypes import TYPE_TOL, TypeTable
from avrs.probability import entropy_bits
from avrs.rng import derive_seed, philox_key, philox_stream, sample_rows


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


def conditional_mutual_information_bits(p: np.ndarray) -> np.ndarray | float:
    """I(A;B|C) in bits for (possibly batched) joint tables of shape
    (..., A, B, C), as H(A,C) + H(B,C) - H(A,B,C) - H(C) clamped at zero."""
    h_ac = entropy_bits(p.sum(axis=-2), axis=(-2, -1))
    h_bc = entropy_bits(p.sum(axis=-3), axis=(-2, -1))
    h_abc = entropy_bits(p, axis=(-3, -2, -1))
    h_c = entropy_bits(p.sum(axis=(-3, -2)), axis=-1)
    return np.maximum(h_ac + h_bc - h_abc - h_c, 0.0)


def info_matrix_oracle(spec, p_arr: np.ndarray, q_arr: np.ndarray) -> np.ndarray:
    """I(U;Y|Z) for every (policy, jammer) pair straight from the whole
    joint table p(u, y, z) of each pair, with no use of the Markov chain
    U - Y - Z.  Shape (policies, jammers)."""
    p_yz = np.einsum("x,nxj,xjyz->nyz", spec.p_x, q_arr, spec.w)
    table = p_arr.transpose(0, 2, 1)[:, None, :, :, None] * p_yz[None, :, None, :, :]
    return conditional_mutual_information_bits(table)


def min_e_over_zeta_oracle(spec, p_arr: np.ndarray, q_arr: np.ndarray) -> np.ndarray:
    """min over reconstruction maps of E[d] for every (policy, jammer) pair,
    straight from the joint p(x, u, z) of each pair: the best reconstruction
    is chosen per (u, z) cell.  Shape (policies, jammers)."""
    c = np.einsum("x,nxj,xjyz,pyu->pnxuz", spec.p_x, q_arr, spec.w, p_arr)
    per_hat = np.einsum("pnxuz,xh->pnuzh", c, spec.d)
    return per_hat.min(axis=-1).sum(axis=(-2, -1))


def r_upper_point_oracle(solver, distortion: float) -> tuple:
    """``RateBoundSolver.r_upper_point`` searched on the full coarse table
    and full refinement tables: (value, uncertainty, policy, reconstruction
    map, jammer)."""
    feas = solver.max_e_matrix <= distortion + DISTORTION_TOL
    feas_p = feas.any(axis=1)
    if not feas_p.any():
        raise InfeasibleDistortionError("no feasible policy")
    p_arr, q_arr, grid = solver._p_candidates, solver._q_candidates, solver.grid
    info = solver._info_matrix(p_arr, q_arr)
    obj = np.where(feas_p, info.max(axis=1), np.inf)
    p0 = int(np.argmin(obj))
    v0 = float(obj[p0])
    best_p = p_arr[p0]
    best_f = int(np.argmax(feas[p0]))
    value = v0
    if grid.refine:
        local = _refine_window(best_p, grid)
        feas_local = solver._max_e_over_jammers(local) <= distortion + DISTORTION_TOL
        ok = np.flatnonzero(feas_local.any(axis=1))
        if ok.size:
            info_local = solver._info_matrix(local[ok], q_arr)
            worst = info_local.max(axis=1)
            k = int(np.argmin(worst))
            p1 = int(ok[k])
            best_p = local[p1]
            best_f = int(np.argmax(feas_local[p1]))
            value = float(worst[k])
            q_inc = q_arr[int(np.argmax(info_local[k]))]
        else:
            q_inc = q_arr[int(np.argmax(info[p0]))]
        q_local = _refine_window(q_inc, grid)
        inner_vals = solver._info_matrix(best_p[None], q_local)[0]
        value = max(value, float(inner_vals.max()))
        q_worst = q_local[int(np.argmax(inner_vals))]
    else:
        q_worst = q_arr[int(np.argmax(info[p0]))]
    zeta = solver._zeta_maps[best_f].reshape(solver.u_size, solver.spec.w.shape[3])
    return value, solver._uncertainty(value, v0), best_p, zeta, q_worst


def r_lower_point_oracle(solver, distortion: float) -> tuple:
    """``RateBoundSolver.r_lower_point`` searched on full tables; returns
    like :func:`r_upper_point_oracle`."""
    feas = solver.min_e_matrix <= distortion + DISTORTION_TOL
    if (~feas.any(axis=0)).any():
        raise InfeasibleDistortionError("a jammer admits no feasible policy")
    p_arr, q_arr, grid = solver._p_candidates, solver._q_candidates, solver.grid
    info = solver._info_matrix(p_arr, q_arr)
    inner = np.where(feas, info, np.inf).min(axis=0)
    n0 = int(np.argmax(inner))
    v0 = float(inner[n0])
    best_q = q_arr[n0]
    value = v0
    best_p = p_arr[int(np.argmin(np.where(feas[:, n0], info[:, n0], np.inf)))]
    if grid.refine:
        q_local = _refine_window(best_q, grid)
        feas_ql = solver._min_e_over_zeta(p_arr, q_local) <= distortion + DISTORTION_TOL
        info_ql = solver._info_matrix(p_arr, q_local)
        inner_ql = np.where(feas_ql, info_ql, np.inf).min(axis=0)
        reachable = np.isfinite(inner_ql)
        if reachable.any():
            inner_ql = np.where(reachable, inner_ql, -np.inf)
            n1 = int(np.argmax(inner_ql))
            best_q = q_local[n1]
            value = float(inner_ql[n1])
            best_p = p_arr[int(np.argmin(np.where(feas_ql[:, n1], info_ql[:, n1], np.inf)))]
        p_local = _refine_window(best_p, grid)
        feas_pl = solver._min_e_over_zeta(p_local, best_q[None])[:, 0] <= distortion + DISTORTION_TOL
        if feas_pl.any():
            info_pl = solver._info_matrix(p_local, best_q[None])[:, 0]
            masked = np.where(feas_pl, info_pl, np.inf)
            p2 = int(np.argmin(masked))
            if masked[p2] < value:
                value = float(masked[p2])
                best_p = p_local[p2]
    zeta = solver._best_zeta(best_p, best_q)
    return value, solver._uncertainty(value, v0), best_p, zeta, best_q


def binary_wyner_ziv_rate(d: float, p0: float) -> float:
    """Wyner-Ziv rate function, in bits, of a uniform bit X described under
    Hamming distortion to a decoder that sees X through a BSC(p0), p0 <= 1/2.

    It is the lower convex envelope of g(D) = h(p0 * D) - h(D), with
    a * b = a(1 - b) + b(1 - a), and of the point (p0, 0): the curve up to
    the point beta where the line from (p0, 0) touches it, that line beyond.
    The touching point minimizes the line's steepness g(beta) / (p0 - beta)
    over [0, p0), found by golden-section search (the ratio is unimodal).
    Wyner and Ziv, IEEE Trans. Inf. Theory 22 (1976), Sec. II.
    """
    if d >= p0:
        return 0.0

    def h(p: float) -> float:
        return -p * math.log2(p) - (1 - p) * math.log2(1 - p) if 0 < p < 1 else 0.0

    def g(b: float) -> float:
        return h(p0 * (1 - b) + b * (1 - p0)) - h(b)

    lo, hi = 0.0, p0
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(200):
        a, b = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
        if g(a) / (p0 - a) < g(b) / (p0 - b):
            hi = b
        else:
            lo = a
    beta = (lo + hi) / 2.0
    return g(d) if d <= beta else g(beta) / (p0 - beta) * (p0 - d)


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


def jammer_types_reference(n: int, x_size: int, j_size: int) -> np.ndarray:
    """Every conditional type T(j|x) realizable at blocklength n as an
    (M, x_size, j_size) float array, built the way the enumeration once was.

    Rows are held in lowest terms and given ids by denominator, then by
    numerators.  For each split (c_x) of n, row x runs over the ids whose
    denominator divides c_x (n when c_x = 0); the id tuples of all splits
    are unioned and deduplicated with np.unique, which leaves them sorted.
    """
    numer = np.array(
        [row for c in range(1, n + 1) for row in _count_rows(c, j_size) if math.gcd(*row) == 1]
    )
    denom = numer.sum(axis=1)
    tuples = []
    for counts in _count_rows(n, x_size):
        tuples += itertools.product(*(np.flatnonzero((c or n) % denom == 0) for c in counts))
    seen = np.unique(np.array(tuples), axis=0)
    return numer[seen] / denom[seen][..., None]


def _count_rows(total, parts):
    """All tuples of ``parts`` non-negative integers summing to ``total``."""
    return [
        combo
        for combo in itertools.product(range(total + 1), repeat=parts)
        if sum(combo) == total
    ]


def session_oracle(x, jammer, config, seed, code_seed=None) -> dict:
    """One coding session computed symbol block by symbol block, the way
    the package ran a lone session before sessions were batched: fresh
    Philox streams, ``searchsorted`` codewords and one codebook per call.
    Returns the fields of the session's ``SessionBatch`` row as plain
    values and arrays."""
    spec, policy = config.spec, config.policy
    xs = np.asarray(x)
    n = xs.size
    # the kernel row q(.|x_i) of each position, from the shared (X, J)
    # kernel or from the position's own
    rows = np.broadcast_to(jammer.q, (n, *jammer.q.shape[-2:]))[np.arange(n), xs]
    j = np.argmax(rows, axis=1)
    random_pos = rows.max(axis=1) < 1.0
    if np.any(random_pos):
        j[random_pos] = sample_rows(philox_stream(seed, "jamming"), rows[random_pos])

    _, _, ny, nz = spec.w.shape
    flat = spec.w[xs, j].reshape(n, ny * nz)
    cdf_yz = np.cumsum(flat, axis=1)
    cdf_yz[:, -1] = 1.0
    u_yz = philox_stream(seed, "channel").random(n)
    pick = np.array([np.searchsorted(c, v, side="right") for c, v in zip(cdf_yz, u_yz)])
    y, z = pick // nz, pick % nz
    t_y = TypeTable(np.bincount(y, minlength=ny), n)
    if code_seed is None:
        code_seed = derive_seed(seed, "code")
    data = config.family.type_data(t_y)
    num, size = data.num_codewords, data.bin_size
    gen = np.random.Generator(
        np.random.Philox(key=philox_key(code_seed, "codebook", *map(int, t_y.counts), n))
    )
    width = -(-n // 4) * 4
    u = gen.random(num * width).reshape(num, width)[:, :n]
    mat = np.searchsorted(data.cdf, u, side="right").astype(np.int64)

    def joint_counts(rows, other, a, b):
        counts = np.zeros((rows.shape[0], a, b), dtype=np.int64)
        for r, row in enumerate(rows):
            np.add.at(counts[r], (row, other), 1)
        return counts

    nu = policy.p_u_given_y.shape[1]
    enc_dev = np.abs(joint_counts(mat, y, nu, ny) / n - data.encoder_target[None]).max(axis=(1, 2))
    satisfiers = np.where(enc_dev <= config.delta2 + TYPE_TOL)[0]
    e_enc = satisfiers.size == 0
    g_enc = 0 if e_enc else int(satisfiers[philox_stream(seed, "encoder").integers(satisfiers.size)])
    m, local = divmod(g_enc, size)

    first = m * size
    bin_rows = mat[first : min(first + size, num)]
    targets = data.decoder_targets
    if targets.shape[0] == 0:
        member = np.zeros(bin_rows.shape[0], dtype=bool)
    else:
        types = joint_counts(bin_rows, z, nu, nz) / n
        dev = np.abs(types[:, None, :, :] - targets[None]).max(axis=(2, 3))
        member = dev.min(axis=1) <= config.gamma + TYPE_TOL
    g_dec = first + int(np.argmax(member)) if int(member.sum()) == 1 else first
    x_hat = policy.zeta[mat[g_dec], z]
    return {
        "j": j,
        "y": y,
        "z": z,
        "u_encoded": mat[g_enc],
        "u_decoded": mat[g_dec],
        "x_hat": x_hat,
        "distortion": float(spec.d[xs, x_hat].mean()),
        "e_enc": bool(e_enc),
        "e_dec1": not bool(member[local]),
        "e_dec2": bool(member.sum() - int(member[local]) > 0),
        "bin_index": m,
        "message_bits": int(np.ceil(np.log2(data.num_bins))) if data.num_bins > 1 else 0,
        "r_u": data.rates.r_u,
        "r_tilde": data.rates.r_tilde,
        "r_bin": data.rates.r_bin,
        "code_seed": code_seed,
    }
