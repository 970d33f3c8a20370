"""Blocklength-n randomized coding over a jammed remote source.

One codebook per observed type: 2^{n r_u} codewords drawn i.i.d. from the
type-induced auxiliary marginal, arranged into bins by index arithmetic
(codeword (j, k) lives in bin j, which is distribution-equivalent to a
random partition for i.i.d. codewords).  The encoder transmits the type and
the bin index; the decoder resolves within the bin using its side
information and the set of jammer conditional types consistent with the
announced type.

Codewords are never stored ahead of time: codeword (j, k) is generated by a
counter-mode stream keyed by (seed, type digest) at the counter offset of
its global index, so lazy single-codeword access and bulk materialization
agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversary import JammerStrategy, jammer_digest, sample_jamming
from .bounds import GridConfig, PerTypeRates, per_type_rates
from .errors import UsageError
from .model import AuxiliaryPolicy, ProblemSpec
from .mtypes import (
    TYPE_TOL,
    SymbolVector,
    TypeTable,
    empirical_type,
    is_typical,
    valid_jammer_types,
)
from .probability import Alphabet, Distribution
from .rng import derive_seed, philox_key, philox_stream, sample_indices

__all__ = [
    "DEFAULT_SIZE_CAP",
    "CodingParams",
    "SessionConfig",
    "Codebook",
    "CodebookFamily",
    "EncodeResult",
    "SessionReport",
    "build_codebook",
    "codeword",
    "encode",
    "decode",
    "decoder_membership",
    "reconstruct",
    "simulate_session",
    "max_distortion_estimate",
    "MaxDistortionReport",
    "CellEstimate",
]

DEFAULT_SIZE_CAP = 2**20


@dataclass(frozen=True)
class CodingParams:
    """Operating thresholds of one coding run.

    The proofs only assert suitable thresholds exist; here they are explicit
    knobs with defaults delta2 = 2 eps, gamma = 4 eps, f_eps = eps, chosen so
    desk-scale blocklengths have non-degenerate success rates.
    """

    eps: float
    delta2: float | None = None
    gamma: float | None = None
    f_eps: float | None = None
    size_cap: int = DEFAULT_SIZE_CAP

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


@dataclass(frozen=True)
class SessionConfig:
    """Everything that identifies a coding system apart from its randomness."""

    spec: ProblemSpec
    policy: AuxiliaryPolicy
    params: CodingParams
    grid: GridConfig | None = None
    code_seed: int | None = None


@dataclass(frozen=True)
class _TypeData:
    """Per-type quantities shared by every code draw: rates, geometry, the
    sampling pmf and the decoder's consistency targets."""

    t_y: TypeTable
    n: int
    rates: PerTypeRates
    p_u: np.ndarray
    encoder_target: np.ndarray  # (U, Y): p(u|y) * t_y(y)
    decoder_targets: np.ndarray  # (K, U, Z)
    num_codewords: int
    num_bins: int
    bin_size: int
    truncated: bool


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
    """Cache of per-type data for one coding system.

    Rates and decoder targets depend only on the observed type, not on the
    code draw, so they are computed once per type and shared across sessions
    and ensemble members.
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
        spec, policy, params = cfg.spec, cfg.policy, cfg.params
        n = t_y.n
        rates = per_type_rates(t_y, policy, spec, params.eps, params.f_eps, cfg.grid)
        num_cw, trunc_u = _ceil_pow2(rates.r_u, n, params.size_cap)
        if trunc_u or not math.isfinite(rates.r_tilde):
            bin_size = min(_ceil_pow2(rates.r_tilde, n, params.size_cap)[0], num_cw)
            num_bins = math.ceil(num_cw / bin_size)
            truncated = True
        else:
            bin_size, trunc_b = _ceil_pow2(rates.r_tilde, n, params.size_cap)
            num_bins, trunc_n = _ceil_pow2(rates.r_bin, n, params.size_cap)
            truncated = trunc_b or trunc_n
            if truncated:
                bin_size = min(bin_size, num_cw)
                num_bins = math.ceil(num_cw / bin_size)
        p_uy = policy.p_u_given_y.matrix  # (Y, U)
        p_u = t_y.probabilities @ p_uy
        encoder_target = (t_y.probabilities[:, None] * p_uy).T
        jam_types = valid_jammer_types(t_y, spec, params.f_eps, n)
        targets = np.einsum(
            "x,mxj,xjyz,yu->muz", spec.p_x.mass, jam_types, spec.w.kernel, p_uy, optimize=True
        )
        targets = np.unique(np.round(targets, 12), axis=0)
        data = _TypeData(
            t_y,
            n,
            rates,
            p_u,
            encoder_target,
            targets,
            num_cw,
            num_bins,
            bin_size,
            truncated,
        )
        self._cache[key] = data
        return data

    def codebook(self, t_y: TypeTable, seed: int) -> "Codebook":
        return Codebook(self, self.type_data(t_y), seed)


class Codebook:
    """One realized per-type binned codebook, materialized lazily."""

    def __init__(self, family: CodebookFamily, data: _TypeData, seed: int):
        self.family = family
        self._data = data
        self.seed = seed
        self.t_y = data.t_y
        self.n = data.n
        self.eps = family.config.params.eps
        self.r_u = data.rates.r_u
        self.r_tilde = data.rates.r_tilde
        self.r_bin = data.rates.r_bin
        self.num_codewords = data.num_codewords
        self.num_bins = data.num_bins
        self.bin_size = data.bin_size
        self.truncated = data.truncated
        self.p_u = Distribution(family.config.policy.u_alphabet, data.p_u)
        self._key = philox_key(seed, "codebook", *map(int, data.t_y.counts.ravel()), data.n)
        self._cdf = np.cumsum(data.p_u)
        self._cdf[-1] = 1.0
        self._matrix: np.ndarray | None = None

    @property
    def u_alphabet(self) -> Alphabet:
        return self.family.config.policy.u_alphabet

    @property
    def blocks_per_codeword(self) -> int:
        # Philox emits 4 doubles per counter block; aligning codewords to
        # whole blocks keeps lazy and bulk generation identical.
        return math.ceil(self.n / 4)

    def matrix(self) -> np.ndarray:
        """All codewords as an int array (num_codewords, n)."""
        if self._matrix is None:
            gen = np.random.Generator(np.random.Philox(key=self._key))
            width = self.blocks_per_codeword * 4
            u = gen.random(self.num_codewords * width).reshape(self.num_codewords, width)
            self._matrix = np.searchsorted(self._cdf, u[:, : self.n], side="right").astype(
                np.int64
            )
        return self._matrix

    def codeword_by_index(self, g: int) -> np.ndarray:
        if not 0 <= g < self.num_codewords:
            raise UsageError(f"codeword index {g} out of range [0, {self.num_codewords})")
        bitgen = np.random.Philox(key=self._key)
        bitgen.advance(self.blocks_per_codeword * g)
        u = np.random.Generator(bitgen).random(self.n)
        return np.searchsorted(self._cdf, u, side="right").astype(np.int64)

    def bin_indices(self, m: int) -> np.ndarray:
        if not 0 <= m < self.num_bins:
            raise UsageError(f"bin index {m} out of range [0, {self.num_bins})")
        lo = m * self.bin_size
        hi = min(lo + self.bin_size, self.num_codewords)
        if lo >= hi:
            raise UsageError(f"bin {m} holds no codewords under the current truncation")
        return np.arange(lo, hi)


def build_codebook(
    t_y: TypeTable,
    policy: AuxiliaryPolicy,
    spec: ProblemSpec,
    eps: float,
    f_eps: float | None,
    seed: int,
    size_cap: int = DEFAULT_SIZE_CAP,
    grid: GridConfig | None = None,
) -> Codebook:
    """Stand-alone codebook constructor (one-off; sessions share a family)."""
    params = CodingParams(eps=eps, f_eps=f_eps, size_cap=size_cap)
    family = CodebookFamily(SessionConfig(spec, policy, params, grid))
    return family.codebook(t_y, seed)


def codeword(cb: Codebook, j: int, k: int) -> SymbolVector:
    """Codeword k of bin j, generated on demand."""
    if not 0 <= j < cb.num_bins:
        raise UsageError(f"bin index {j} out of range [0, {cb.num_bins})")
    if not 0 <= k < cb.bin_size:
        raise UsageError(f"within-bin index {k} out of range [0, {cb.bin_size})")
    return SymbolVector(cb.u_alphabet, cb.codeword_by_index(j * cb.bin_size + k))


@dataclass(frozen=True)
class EncodeResult:
    t_y: TypeTable
    bin_index: int
    codeword_index: tuple[int, int]
    fallback_used: bool


def _pair_counts(rows: np.ndarray, other: np.ndarray, a_size: int, b_size: int) -> np.ndarray:
    """Joint pair counts of each row of ``rows`` against ``other``.

    rows: (B, n) ints < a_size; other: (n,) ints < b_size -> (B, a, b).
    """
    b, n = rows.shape
    comp = rows * b_size + other[None, :]
    comp = comp + (np.arange(b)[:, None] * a_size * b_size)
    counts = np.bincount(comp.ravel(), minlength=b * a_size * b_size)
    return counts.reshape(b, a_size, b_size)


def encode(
    y: SymbolVector, cb: Codebook, delta2: float, rng: np.random.Generator
) -> EncodeResult:
    """Pick a codeword jointly typical with y under the type-induced joint.

    All satisfying codewords are collected and one is chosen uniformly via
    ``rng``; if none satisfies the threshold the first codeword of the first
    bin is sent and flagged.
    """
    t_y = empirical_type(y)
    if t_y != cb.t_y:
        raise UsageError("input type does not match the codebook's type")
    mat = cb.matrix()
    counts = _pair_counts(mat, y.symbols, cb.u_alphabet.size, y.alphabet.size)
    dev = np.abs(counts / cb.n - cb._data.encoder_target[None]).max(axis=(1, 2))
    satisfiers = np.where(dev <= delta2 + TYPE_TOL)[0]
    if satisfiers.size == 0:
        return EncodeResult(t_y, 0, (0, 0), True)
    g = int(satisfiers[rng.integers(satisfiers.size)])
    m, l = divmod(g, cb.bin_size)
    return EncodeResult(t_y, m, (m, l), False)


def decoder_membership(
    m: int, z: SymbolVector, cb: Codebook, gamma: float
) -> np.ndarray:
    """Flags, per codeword of bin m, of membership in the decoder's list:
    joint type with z within gamma of some jammer-consistent target."""
    targets = cb._data.decoder_targets
    idx = cb.bin_indices(m)
    rows = cb.matrix()[idx]
    counts = _pair_counts(rows, z.symbols, cb.u_alphabet.size, z.alphabet.size)
    if targets.shape[0] == 0:
        return np.zeros(idx.size, dtype=bool)
    types = counts / cb.n
    dev = np.abs(types[:, None, :, :] - targets[None]).max(axis=(2, 3))
    return dev.min(axis=1) <= gamma + TYPE_TOL


def _list_decode(m: int, z: SymbolVector, cb: Codebook, gamma: float) -> tuple[np.ndarray, int]:
    """Decoder list of bin m and the decoded codeword's global index: the
    unique list member, else the bin's first codeword."""
    member = decoder_membership(m, z, cb, gamma)
    first = m * cb.bin_size
    if int(member.sum()) == 1:
        return member, first + int(np.argmax(member))
    return member, first


def decode(
    m: int,
    z: SymbolVector,
    t_y: TypeTable,
    cb: Codebook,
    gamma: float,
    f_eps: float,
    spec: ProblemSpec,
    policy: AuxiliaryPolicy,
) -> SymbolVector:
    """List-decode bin m against the side information.

    A uniquely consistent codeword is returned; otherwise the bin's first
    codeword.  Deterministic in all arguments.
    """
    if t_y != cb.t_y:
        raise UsageError("announced type does not match the codebook's type")
    cfg = cb.family.config
    if (
        spec.digest() != cfg.spec.digest()
        or policy.digest() != cfg.policy.digest()
        or abs(f_eps - cfg.params.f_eps) > 1e-12
    ):
        # decoder context differs from the family's: build a fresh one
        params = CodingParams(eps=cb.eps, f_eps=f_eps, size_cap=cfg.params.size_cap)
        family = CodebookFamily(SessionConfig(spec, policy, params, cfg.grid))
        cb = family.codebook(t_y, cb.seed)
    _, g = _list_decode(m, z, cb, gamma)
    return SymbolVector(cb.u_alphabet, cb.matrix()[g])


def reconstruct(u: SymbolVector, z: SymbolVector, zeta: np.ndarray) -> SymbolVector:
    """Symbolwise reconstruction x̂_i = zeta(u_i, z_i)."""
    if len(u) != len(z):
        raise UsageError(f"reconstruct with lengths {len(u)} != {len(z)}")
    zeta = np.asarray(zeta, dtype=np.int64)
    out = zeta[u.symbols, z.symbols]
    return SymbolVector(Alphabet("Xhat", int(zeta.max()) + 1), out)


@dataclass(frozen=True)
class SessionReport:
    """Everything observable from one coding session."""

    x: SymbolVector
    j: SymbolVector
    y: SymbolVector
    z: SymbolVector
    u_encoded: SymbolVector
    u_decoded: SymbolVector
    x_hat: SymbolVector
    distortion: float
    e_enc: bool
    e_dec1: bool
    e_dec2: bool
    bin_index: int
    message_bits: int
    r_u: float
    r_tilde: float
    r_bin: float
    code_seed: int


def _draw_channel(
    spec: ProblemSpec, x: SymbolVector, j: SymbolVector, rng: np.random.Generator
) -> tuple[SymbolVector, SymbolVector]:
    n = len(x)
    nz = spec.z_alphabet.size
    ny = spec.y_alphabet.size
    flat = spec.w.kernel[x.symbols, j.symbols].reshape(n, ny * nz)
    cdf = np.cumsum(flat, axis=1)
    cdf[:, -1] = 1.0
    u = rng.random(n)
    pick = (u[:, None] >= cdf).sum(axis=1)
    return (
        SymbolVector(spec.y_alphabet, pick // nz),
        SymbolVector(spec.z_alphabet, pick % nz),
    )


def simulate_session(
    x: SymbolVector,
    jammer: JammerStrategy,
    config: SessionConfig,
    seed: int,
    code_seed: int | None = None,
    family: CodebookFamily | None = None,
) -> SessionReport:
    """Run jamming, channel, encoder, decoder and reconstruction once.

    All randomness is derived from ``seed``; the code draw itself comes from
    ``code_seed`` when given (fixed code across sessions), else from the
    config, else it is refreshed per session, which realizes the
    shared-randomness reading of the scheme.
    """
    spec, policy, params = config.spec, config.policy, config.params
    family = family or CodebookFamily(config)
    j = sample_jamming(jammer, x, philox_stream(seed, "jamming"))
    y, z = _draw_channel(spec, x, j, philox_stream(seed, "channel"))
    t_y = empirical_type(y)
    if code_seed is None:
        code_seed = config.code_seed
    if code_seed is None:
        code_seed = derive_seed(seed, "code")
    cb = family.codebook(t_y, code_seed)
    enc = encode(y, cb, params.delta2, philox_stream(seed, "encoder"))
    member, g_dec = _list_decode(enc.bin_index, z, cb, params.gamma)
    u_decoded = SymbolVector(cb.u_alphabet, cb.matrix()[g_dec])
    local = enc.codeword_index[1]
    g_enc = enc.bin_index * cb.bin_size + local
    u_encoded = SymbolVector(cb.u_alphabet, cb.matrix()[g_enc])
    x_hat = reconstruct(u_decoded, z, policy.zeta)
    distortion = float(spec.d.entries[x.symbols, x_hat.symbols].mean())
    e_dec1 = not bool(member[local])
    e_dec2 = bool(member.sum() - int(member[local]) > 0)
    message_bits = math.ceil(math.log2(cb.num_bins)) if cb.num_bins > 1 else 0
    return SessionReport(
        x=x,
        j=j,
        y=y,
        z=z,
        u_encoded=u_encoded,
        u_decoded=u_decoded,
        x_hat=x_hat,
        distortion=distortion,
        e_enc=enc.fallback_used,
        e_dec1=e_dec1,
        e_dec2=e_dec2,
        bin_index=enc.bin_index,
        message_bits=message_bits,
        r_u=cb.r_u,
        r_tilde=cb.r_tilde,
        r_bin=cb.r_bin,
        code_seed=code_seed,
    )


def sample_typical_sources(
    spec: ProblemSpec, n: int, delta0: float, count: int, seed: int, max_tries: int = 10_000
) -> list[SymbolVector]:
    """Draw i.i.d. source blocks conditioned on delta0-typicality."""
    gen = philox_stream(seed, "sources")
    out: list[SymbolVector] = []
    for _ in range(max_tries):
        if len(out) == count:
            break
        x = SymbolVector(spec.x_alphabet, sample_indices(gen, spec.p_x.mass, n))
        if is_typical(x, spec.p_x, delta0):
            out.append(x)
    if len(out) < count:
        raise UsageError(
            f"found only {len(out)}/{count} delta0-typical source blocks at n={n}, "
            f"delta0={delta0}; enlarge delta0 or n"
        )
    return out


@dataclass(frozen=True)
class CellEstimate:
    x_index: int
    jammer_index: int
    jammer_descriptor: str
    mean: float
    std_error: float
    trials: int


@dataclass(frozen=True)
class MaxDistortionReport:
    estimate: float
    argmax_x: int
    argmax_jammer: int
    cells: tuple[CellEstimate, ...]
    delta0: float
    n: int


def max_distortion_estimate(
    config: SessionConfig,
    jammer_set: list[JammerStrategy],
    n: int,
    trials: int,
    seed: int,
    delta0: float | None = None,
    num_sources: int = 3,
    family: CodebookFamily | None = None,
) -> MaxDistortionReport:
    """Monte Carlo estimate of the worst mean distortion over sampled typical
    source blocks and the given jammer set, with per-cell standard errors."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    if not jammer_set:
        raise UsageError("jammer_set must be non-empty")
    if delta0 is None:
        delta0 = n ** (-1.0 / 3.0)
    xs = sample_typical_sources(config.spec, n, delta0, num_sources, seed)
    family = family or CodebookFamily(config)
    cells = []
    best = (-math.inf, 0, 0)
    for ix, x in enumerate(xs):
        for ij, jam in enumerate(jammer_set):
            digest = jammer_digest(jam)
            vals = np.empty(trials)
            for t in range(trials):
                s = derive_seed(seed, "cell", ix, digest, t)
                vals[t] = simulate_session(x, jam, config, s, family=family).distortion
            mean = float(vals.mean())
            se = float(vals.std(ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
            descriptor = getattr(jam, "descriptor", jam.__class__.__name__)
            cells.append(CellEstimate(ix, ij, descriptor, mean, se, trials))
            if mean > best[0]:
                best = (mean, ix, ij)
    return MaxDistortionReport(best[0], best[1], best[2], tuple(cells), delta0, n)
