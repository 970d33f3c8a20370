"""Blocklength-n randomized coding over a jammed remote source.

One codebook per observed type: 2^{n r_u} codewords drawn i.i.d. from the
type-induced auxiliary marginal, arranged into bins by index arithmetic
(codeword (j, k) lives in bin j, which is distribution-equivalent to a
random partition for i.i.d. codewords).  The encoder transmits the type and
the bin index; the decoder resolves within the bin using its side
information and the set of jammer conditional types consistent with the
announced type.

A :class:`SessionConfig` names a coding system: the instance, the auxiliary
policy and the operating thresholds (eps, delta2, gamma, f_eps and the
codebook size cap), with the one cache of per-type data they determine.
A codebook is drawn from a counter-mode stream keyed by (seed, type).  A
:class:`Codebook` is a (type, seed) handle that keeps its matrix once
drawn; the session engine :func:`simulate_sessions` takes a whole run of
sessions in one call, groups them by observed type, and draws each distinct
(type, code seed) once per call.  Symbol blocks are integer arrays, one row
per session.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .adversary import Jammer, sample_jamming
from .bounds import PerTypeRates, joint_uz, per_type_rates
from .errors import UsageError
from .model import AuxiliaryPolicy, ProblemSpec
from .mtypes import TYPE_TOL, TypeTable, is_typical, pair_counts, valid_jammer_types
from .rng import (
    cumulative,
    derive_seed,
    inverse_cdf,
    philox_key,
    philox_stream,
    rekey,
    sample_indices,
)

__all__ = [
    "DEFAULT_SIZE_CAP",
    "SessionConfig",
    "Codebook",
    "CodebookFamily",
    "EncodeResult",
    "SessionBatch",
    "encode",
    "decode",
    "decoder_membership",
    "reconstruct",
    "simulate_session",
    "simulate_sessions",
    "sample_typical_sources",
]

DEFAULT_SIZE_CAP = 2**20

# Codeword symbols (sessions x codewords x n) that one encoder and decoder
# call over a Y-type group holds: the only rule by which simulate_sessions
# splits the sessions of a call.  Each symbol costs 10-16 bytes at n = 16
# with |U| = |Y| = 2 (tracemalloc, README derandomize run), and 10 at
# n = 32: the one-byte codeword, its float32 indicator in pair_counts, and
# every codeword's int64 pair counts and float64 deviations.  A group whose
# codebooks exceed it runs in parts, down to one session per part, as the
# largest types of the README simulate run at n = 24 (up to 1514
# codewords) do.  The README derandomize run (2048 sessions in 101 group
# calls) peaks at 41.4 MB RSS, against 41.7 MB at 2^16, 42.5 MB at 2^17
# and 45.0 MB at 2^20.  At n = 32 with --cap 65536 (simulate, 64 trials,
# trivial jammer; up to 17 380 codewords) the run peaks at 48.9 MB, against
# 48.8 MB one session per call and 50.5 MB at 2^20.
GROUP_SYMBOLS = 2**15

# Source blocks drawn by sample_typical_sources before it reports that too
# few are typical.
MAX_SOURCE_DRAWS = 10_000


@dataclass(frozen=True)
class SessionConfig:
    """Everything that identifies a coding system apart from its randomness:
    the instance, the auxiliary policy and the operating thresholds.

    The proofs only assert suitable thresholds exist; here they are explicit
    knobs with defaults delta2 = 2 eps, gamma = 4 eps, f_eps = eps, chosen so
    desk-scale blocklengths have non-degenerate success rates.  ``family`` is
    the system's one cache of per-type data, built with the config and
    shared by every session, harness and search run on it.
    """

    spec: ProblemSpec
    policy: AuxiliaryPolicy
    eps: float
    delta2: float | None = None
    gamma: float | None = None
    f_eps: float | None = None
    size_cap: int = DEFAULT_SIZE_CAP
    family: CodebookFamily = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.eps <= 0:
            raise UsageError("eps must be > 0")
        if self.size_cap < 1:
            raise UsageError("size_cap must be >= 1")
        if self.delta2 is None:
            object.__setattr__(self, "delta2", 2.0 * self.eps)
        if self.gamma is None:
            object.__setattr__(self, "gamma", 4.0 * self.eps)
        if self.f_eps is None:
            object.__setattr__(self, "f_eps", self.eps)
        for name in ("delta2", "gamma", "f_eps"):
            if getattr(self, name) < 0:
                raise UsageError(f"{name} must be >= 0")
        object.__setattr__(self, "family", CodebookFamily(self))


@dataclass(frozen=True)
class _TypeData:
    """Per-type quantities shared by every code draw: rates, geometry, the
    CDF of the codeword symbols, and the encoder's and decoder's targets."""

    t_y: TypeTable
    n: int
    rates: PerTypeRates
    cdf: np.ndarray
    encoder_target: np.ndarray  # (U, Y): p(u|y) * t_y(y)
    decoder_targets: np.ndarray  # (K, U, Z)
    num_codewords: int
    num_bins: int
    bin_size: int
    truncated: bool

    @property
    def message_bits(self) -> int:
        return math.ceil(math.log2(self.num_bins)) if self.num_bins > 1 else 0


def _ceil_pow2(rate_bits: float, n: int, cap: int) -> tuple[int, bool]:
    """ceil(2^{n * rate_bits}), truncated to ``cap``."""
    if not math.isfinite(rate_bits):
        return cap, True
    exponent = n * rate_bits
    if exponent >= 62:
        return cap, True
    count = math.ceil(2.0**exponent)
    if count > cap:
        return cap, True
    return count, False


class CodebookFamily:
    """Cache of per-type data for one coding system; each
    :class:`SessionConfig` builds exactly one, as ``config.family``.

    Rates and decoder targets depend only on the observed type, not on the
    code draw, so they are computed once per type and shared across sessions
    and ensemble members.  The jammer conditional types behind the decoder
    targets are enumerated once per blocklength, for every type and family
    (see :func:`valid_jammer_types`); each type filters them, and its
    targets are their distinct rounded (U, Z) joints.
    """

    def __init__(self, config: SessionConfig):
        self.config = config
        self._cache: dict[tuple, _TypeData] = {}

    def type_data(self, t_y: TypeTable) -> _TypeData:
        key = t_y.key()
        data = self._cache.get(key)
        if data is not None:
            return data
        cfg = self.config
        spec, policy = cfg.spec, cfg.policy
        n = t_y.n
        rates = per_type_rates(t_y, policy, spec, cfg.eps, cfg.f_eps)
        num_cw, trunc_u = _ceil_pow2(rates.r_u, n, cfg.size_cap)
        bin_size, trunc_b = _ceil_pow2(rates.r_tilde, n, cfg.size_cap)
        num_bins, trunc_n = _ceil_pow2(rates.r_bin, n, cfg.size_cap)
        truncated = trunc_u or trunc_b or trunc_n
        if truncated:
            bin_size = min(bin_size, num_cw)
            num_bins = math.ceil(num_cw / bin_size)
        p_uy = policy.p_u_given_y  # (Y, U)
        encoder_target = (t_y.probabilities[:, None] * p_uy).T
        jam_types = valid_jammer_types(t_y, spec, cfg.f_eps, n)
        targets = _distinct(np.round(joint_uz(spec, jam_types, p_uy), 12))
        data = _TypeData(
            t_y,
            n,
            rates,
            cumulative(t_y.probabilities @ p_uy),
            encoder_target,
            targets,
            num_cw,
            num_bins,
            bin_size,
            truncated,
        )
        self._cache[key] = data
        return data


def _distinct(tables: np.ndarray) -> np.ndarray:
    """The distinct tables of a (K, ...) float array, each once, in the order
    of their bytes.  Adding 0.0 turns -0.0 into 0.0, so two tables hold equal
    values exactly when they hold equal bytes (no entry is NaN)."""
    tables = np.ascontiguousarray(tables + 0.0)
    width = math.prod(tables.shape[1:])
    rows = tables.reshape(len(tables), width).view(np.dtype((np.void, tables.itemsize * width)))
    _, first = np.unique(rows, return_index=True)
    return tables[first]


def _codebook_key(data: _TypeData, seed: int) -> np.ndarray:
    return philox_key(seed, "codebook", *map(int, data.t_y.counts.ravel()), data.n)


def _draw_codewords(gen: np.random.Generator, data: _TypeData) -> np.ndarray:
    """Every codeword, (num_codewords, n), of one type's code, from a
    generator at the start of that code's stream."""
    # Each row draws whole 4-double Philox blocks and drops the padding;
    # drawing exactly n per row would change every codeword of every seed.
    width = math.ceil(data.n / 4) * 4
    u = gen.random(data.num_codewords * width).reshape(data.num_codewords, width)
    return inverse_cdf(data.cdf, u[:, : data.n])


class Codebook:
    """The code of seed ``seed`` for the type of ``data``; its codewords are
    drawn on the first :meth:`matrix` call and kept."""

    def __init__(self, data: _TypeData, seed: int):
        self.data = data
        self.seed = seed
        self._matrix: np.ndarray | None = None

    def matrix(self) -> np.ndarray:
        """All codewords as an integer array (num_codewords, n)."""
        if self._matrix is None:
            gen = np.random.Generator(np.random.Philox(key=_codebook_key(self.data, self.seed)))
            self._matrix = _draw_codewords(gen, self.data)
        return self._matrix


@dataclass(frozen=True)
class EncodeResult:
    """The sent codeword's index (bin m holds the indices from m * bin_size)
    and whether no codeword met the threshold, so codeword 0 was sent."""

    codeword: int
    fallback_used: bool


def _encoder_satisfied(
    codewords: np.ndarray, y: np.ndarray, data: _TypeData, delta2: float
) -> np.ndarray:
    """Flags (..., N) of the codewords (..., N, n) whose joint type with y
    (..., n) lies within delta2 of the type-induced joint p(u|y) t_y(y)."""
    nu, ny = data.encoder_target.shape
    counts = pair_counts(codewords, y, nu, ny)
    dev = np.abs(counts / data.n - data.encoder_target).max(axis=(-2, -1))
    return dev <= delta2 + TYPE_TOL


def _choose(satisfied: np.ndarray, rng: np.random.Generator) -> int | None:
    """Uniform choice, through ``rng``, of one flagged codeword; None if no
    codeword is flagged (and then ``rng`` is not used)."""
    hits = np.flatnonzero(satisfied)
    if hits.size == 0:
        return None
    return int(hits[rng.integers(hits.size)])


def encode(y: np.ndarray, cb: Codebook, delta2: float, rng: np.random.Generator) -> EncodeResult:
    """Pick a codeword jointly typical with the Y block y (a one-dimensional
    integer array of the codebook's type) under the type-induced joint.

    All satisfying codewords are collected and one is chosen uniformly via
    ``rng``; if none satisfies the threshold the first codeword of the first
    bin is sent and flagged.
    """
    data = cb.data
    y = np.asarray(y)
    ny = data.t_y.counts.size
    if y.ndim != 1 or y.size != data.n or y.min() < 0 or y.max() >= ny:
        raise UsageError(f"a Y block must be {data.n} symbols below {ny}")
    if not np.array_equal(np.bincount(y, minlength=ny), data.t_y.counts):
        raise UsageError("input type does not match the codebook's type")
    g = _choose(_encoder_satisfied(cb.matrix(), y, data, delta2), rng)
    return EncodeResult(0 if g is None else g, g is None)


def decoder_membership(
    rows: np.ndarray, z: np.ndarray, targets: np.ndarray, gamma: float
) -> np.ndarray:
    """Flags (..., B) of membership in the decoder's list for the codewords
    ``rows`` (..., B, n) of a bin against the side information ``z`` (..., n):
    joint type within gamma of some jammer-consistent target of ``targets``
    (K, U, Z)."""
    k, nu, nz = targets.shape
    if k == 0:
        return np.zeros(rows.shape[:-1], dtype=bool)
    types = pair_counts(rows, z, nu, nz).reshape(rows.shape[:-1] + (1, nu * nz)) / rows.shape[-1]
    cells = targets.reshape(k, nu * nz)
    # the l-infinity gap to every target, one (u, z) cell at a time, so no
    # (..., B, K, U, Z) temporary is held
    dev = np.abs(types[..., 0] - cells[:, 0])
    for c in range(1, nu * nz):
        np.maximum(dev, np.abs(types[..., c] - cells[:, c]), out=dev)
    return dev.min(axis=-1) <= gamma + TYPE_TOL


def decode(member: np.ndarray) -> np.ndarray:
    """The list-decoding rule on a bin's membership flags (..., B): the local
    index of the unique list member, else 0, the bin's first codeword."""
    return np.where(member.sum(axis=-1) == 1, member.argmax(axis=-1), 0)


def reconstruct(u: np.ndarray, z: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """Symbolwise reconstruction x̂_i = zeta(u_i, z_i) of equally shaped
    symbol arrays."""
    if u.shape != z.shape:
        raise UsageError(f"reconstruct with shapes {u.shape} != {z.shape}")
    return np.asarray(zeta, dtype=np.int64)[u, z]


@dataclass(frozen=True)
class SessionBatch:
    """The outcomes of T coding sessions, row t for the t-th session: the
    symbol blocks have shape (T, n), every other field shape (T,)."""

    x: np.ndarray
    j: np.ndarray
    y: np.ndarray
    z: np.ndarray
    u_encoded: np.ndarray
    u_decoded: np.ndarray
    x_hat: np.ndarray
    distortion: np.ndarray
    e_enc: np.ndarray
    e_dec1: np.ndarray
    e_dec2: np.ndarray
    bin_index: np.ndarray
    message_bits: np.ndarray
    r_u: np.ndarray
    r_tilde: np.ndarray
    r_bin: np.ndarray
    code_seed: tuple[int, ...]


def simulate_sessions(
    xs: np.ndarray,
    jammer: Jammer,
    config: SessionConfig,
    seeds: Sequence[int],
    code_seeds: Sequence[int] | None = None,
) -> SessionBatch:
    """Run jamming, channel, encoder, decoder and reconstruction for T
    sessions, one per row of the source blocks ``xs`` (T, n).

    Session t draws from its own streams ``philox_stream(seeds[t], label)``
    for the labels "jamming", "channel" and "encoder", so its outcome does
    not depend on the other rows.  Its code is ``code_seeds[t]`` (a fixed
    code across sessions), else a fresh draw ``derive_seed(seeds[t],
    "code")``, which realizes the shared-randomness reading of the scheme.
    Jamming and channel run for all T sessions at once.  The sessions are
    then grouped by observed Y-type, each group listing a code seed's
    sessions together, and a group runs in one call to the encoder and
    decoder unless its codebooks exceed ``GROUP_SYMBOLS``; then it runs in
    parts, and a code whose sessions continue into the next part keeps its
    codebook, so each distinct (type, code seed) is drawn once per call.
    """
    xs = np.array(xs, dtype=np.int64)
    seeds = [int(s) for s in seeds]
    if xs.ndim != 2 or xs.shape[0] != len(seeds) or xs.shape[0] < 1 or xs.shape[1] < 1:
        raise UsageError(
            f"source blocks of shape {xs.shape} for {len(seeds)} seeds; "
            "expected one non-empty row per seed"
        )
    spec = config.spec
    if xs.min() < 0 or xs.max() >= len(spec.p_x):
        raise UsageError("source symbol outside the X alphabet")
    xs.setflags(write=False)
    if code_seeds is None:
        codes = tuple(derive_seed(s, "code") for s in seeds)
    else:
        codes = tuple(int(c) for c in code_seeds)
        if len(codes) != len(seeds):
            raise UsageError(f"{len(codes)} code seeds for {len(seeds)} sessions")
    count, n = xs.shape
    gen = philox_stream(0)  # re-keyed for every stream it serves
    j = sample_jamming(jammer, xs, lambda t: rekey(gen, philox_key(seeds[t], "jamming")))
    y, z = _channel(xs, j, seeds, spec, gen)

    u_type = np.min_scalar_type(config.policy.p_u_given_y.shape[1] - 1)  # that of the codewords
    out = {
        "u_encoded": np.empty((count, n), dtype=u_type),
        "u_decoded": np.empty((count, n), dtype=u_type),
        "x_hat": np.empty((count, n), dtype=np.min_scalar_type(spec.d.shape[1] - 1)),
        "e_enc": np.empty(count, dtype=bool),
        "e_dec1": np.empty(count, dtype=bool),
        "e_dec2": np.empty(count, dtype=bool),
        "bin_index": np.empty(count, dtype=np.int64),
        "message_bits": np.empty(count, dtype=np.int64),
        "r_u": np.empty(count),
        "r_tilde": np.empty(count),
        "r_bin": np.empty(count),
    }
    ny = spec.w.shape[2]
    groups: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for t, counts in enumerate((y[:, :, None] == np.arange(ny)).sum(axis=1).tolist()):
        groups.setdefault(tuple(counts), {}).setdefault(codes[t], []).append(t)
    for counts, by_code in groups.items():
        data = config.family.type_data(TypeTable(np.array(counts), n))
        members = [t for sessions in by_code.values() for t in sessions]
        per = max(1, GROUP_SYMBOLS // (data.num_codewords * n))
        book = None  # (code seed, codewords), kept while the code's sessions last
        for lo in range(0, len(members), per):
            part = members[lo : lo + per]
            books = []
            for t in part:
                if book is None or book[0] != codes[t]:
                    book = codes[t], _draw_codewords(rekey(gen, _codebook_key(data, codes[t])), data)
                books.append(book[1])
            _run_group(out, part, np.stack(books), data, y, z, seeds, config, gen)
    out["distortion"] = spec.d[xs, out["x_hat"]].mean(axis=1)
    return SessionBatch(x=xs, j=j, y=y, z=z, code_seed=codes, **out)


def _channel(
    xs: np.ndarray, j: np.ndarray, seeds: list[int], spec: ProblemSpec, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """The (T, n) Y and Z blocks of each session's channel stream."""
    nx, nj, _, nz = spec.w.shape
    u = np.empty(xs.shape)
    for t, seed in enumerate(seeds):
        u[t] = rekey(gen, philox_key(seed, "channel")).random(xs.shape[1])
    pick = inverse_cdf(cumulative(spec.w.reshape(nx, nj, -1))[xs, j], u)
    return pick // nz, pick % nz


def _run_group(
    out: dict[str, np.ndarray],
    members: list[int],
    cws: np.ndarray,
    data: _TypeData,
    y: np.ndarray,
    z: np.ndarray,
    seeds: list[int],
    config: SessionConfig,
    gen: np.random.Generator,
) -> None:
    """Encoder, decoder and reconstruction for the sessions ``members``,
    which all observe the Y-type of ``data``, with ``cws[i]`` the codebook
    of member i; fills their rows of ``out``."""
    rows = np.array(members)
    size = rows.size

    satisfied = _encoder_satisfied(cws, y[rows], data, config.delta2)
    g_enc = np.zeros(size, dtype=np.int64)
    for i, t in enumerate(members):
        g = _choose(satisfied[i], rekey(gen, philox_key(seeds[t], "encoder")))
        out["e_enc"][t] = g is None
        g_enc[i] = 0 if g is None else g
    m, local = np.divmod(g_enc, data.bin_size)

    first_cw = m * data.bin_size
    span = first_cw[:, None] + np.arange(data.bin_size)
    in_book = span < data.num_codewords  # a truncated last bin is short
    arange = np.arange(size)
    bins = cws[arange[:, None], np.minimum(span, data.num_codewords - 1)]
    member = decoder_membership(bins, z[rows], data.decoder_targets, config.gamma) & in_book
    g_dec = first_cw + decode(member)
    sent_listed = member[arange, local]

    u_decoded = cws[arange, g_dec]
    out["u_encoded"][rows] = cws[arange, g_enc]
    out["u_decoded"][rows] = u_decoded
    out["x_hat"][rows] = reconstruct(u_decoded, z[rows], config.policy.zeta)
    out["e_dec1"][rows] = ~sent_listed
    out["e_dec2"][rows] = member.sum(axis=1) - sent_listed > 0
    out["bin_index"][rows] = m
    out["message_bits"][rows] = data.message_bits
    out["r_u"][rows] = data.rates.r_u
    out["r_tilde"][rows] = data.rates.r_tilde
    out["r_bin"][rows] = data.rates.r_bin


def simulate_session(x: np.ndarray, jammer: Jammer, config: SessionConfig, seed: int) -> SessionBatch:
    """One coding session on the source block x (n,) with a fresh code draw:
    the one-row batch of :func:`simulate_sessions`."""
    return simulate_sessions(np.asarray(x)[None], jammer, config, [seed])


def sample_typical_sources(spec: ProblemSpec, n: int, count: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. source blocks conditioned on delta0-typicality,
    delta0 = n^(-1/3), as a (count, n) array, giving up after
    ``MAX_SOURCE_DRAWS`` draws."""
    delta0 = n ** (-1.0 / 3.0)
    gen = philox_stream(seed, "sources")
    out: list[np.ndarray] = []
    for _ in range(MAX_SOURCE_DRAWS):
        if len(out) == count:
            break
        x = sample_indices(gen, spec.p_x, n)
        if is_typical(x, spec.p_x, delta0):
            out.append(x)
    if len(out) < count:
        raise UsageError(
            f"found only {len(out)}/{count} delta0-typical source blocks at n={n}, "
            f"delta0=n^(-1/3)={delta0:.4g}; enlarge n"
        )
    return np.stack(out)
