"""Blocklength-n randomized coding over a jammed remote source.

One codebook per observed type: 2^{n r_u} codewords drawn i.i.d. from the
type-induced auxiliary marginal, arranged into bins by index arithmetic
(codeword (j, k) lives in bin j, which is distribution-equivalent to a
random partition for i.i.d. codewords).  The encoder transmits the type and
the bin index; the decoder resolves within the bin using its side
information and the set of jammer conditional types consistent with the
announced type.

A codebook is materialized on first use, from a counter-mode stream keyed
by (seed, type), and then kept for every later session with that code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .adversary import JammerStrategy, sample_jamming
from .bounds import PerTypeRates, joint_uz, per_type_rates
from .errors import UsageError
from .model import AuxiliaryPolicy, ProblemSpec
from .mtypes import (
    TYPE_TOL,
    SymbolVector,
    TypeTable,
    empirical_type,
    is_typical,
    pair_counts,
    valid_jammer_types,
)
from .probability import Alphabet, Distribution
from .rng import derive_seed, philox_key, philox_stream, sample_indices, sample_rows

__all__ = [
    "DEFAULT_SIZE_CAP",
    "CodingParams",
    "SessionConfig",
    "Codebook",
    "CodebookFamily",
    "EncodeResult",
    "SessionReport",
    "encode",
    "decode",
    "decoder_membership",
    "reconstruct",
    "simulate_session",
]

DEFAULT_SIZE_CAP = 2**20

# Source blocks drawn by sample_typical_sources before it reports that too
# few are typical.
MAX_SOURCE_DRAWS = 10_000


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
    """Everything that identifies a coding system apart from its randomness.

    ``family`` is the system's one cache of per-type data, built with the
    config and shared by every session, harness and search run on it.
    """

    spec: ProblemSpec
    policy: AuxiliaryPolicy
    params: CodingParams
    family: CodebookFamily = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", CodebookFamily(self))


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
    """Cache of per-type data for one coding system; each
    :class:`SessionConfig` builds exactly one, as ``config.family``.

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
        rates = per_type_rates(t_y, policy, spec, params.eps, params.f_eps)
        num_cw, trunc_u = _ceil_pow2(rates.r_u, n, params.size_cap)
        bin_size, trunc_b = _ceil_pow2(rates.r_tilde, n, params.size_cap)
        num_bins, trunc_n = _ceil_pow2(rates.r_bin, n, params.size_cap)
        truncated = trunc_u or trunc_b or trunc_n
        if truncated:
            bin_size = min(bin_size, num_cw)
            num_bins = math.ceil(num_cw / bin_size)
        p_uy = policy.p_u_given_y.matrix  # (Y, U)
        p_u = t_y.probabilities @ p_uy
        encoder_target = (t_y.probabilities[:, None] * p_uy).T
        jam_types = valid_jammer_types(t_y, spec, params.f_eps, n)
        targets = np.unique(np.round(joint_uz(spec, jam_types, p_uy), 12), axis=0)
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

    def matrix(self) -> np.ndarray:
        """All codewords as an int array (num_codewords, n)."""
        if self._matrix is None:
            gen = np.random.Generator(np.random.Philox(key=self._key))
            # Each row draws whole 4-double Philox blocks and drops the
            # padding; drawing exactly n per row would change every codeword
            # of every seed.
            width = math.ceil(self.n / 4) * 4
            u = gen.random(self.num_codewords * width).reshape(self.num_codewords, width)
            self._matrix = np.searchsorted(self._cdf, u[:, : self.n], side="right").astype(
                np.int64
            )
        return self._matrix

    def bin_indices(self, m: int) -> np.ndarray:
        if not 0 <= m < self.num_bins:
            raise UsageError(f"bin index {m} out of range [0, {self.num_bins})")
        lo = m * self.bin_size
        hi = min(lo + self.bin_size, self.num_codewords)
        if lo >= hi:
            raise UsageError(f"bin {m} holds no codewords under the current truncation")
        return np.arange(lo, hi)


@dataclass(frozen=True)
class EncodeResult:
    t_y: TypeTable
    bin_index: int
    codeword_index: tuple[int, int]
    fallback_used: bool


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
    counts = pair_counts(mat, y.symbols, cb.u_alphabet.size, y.alphabet.size)
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
    counts = pair_counts(rows, z.symbols, cb.u_alphabet.size, z.alphabet.size)
    if targets.shape[0] == 0:
        return np.zeros(idx.size, dtype=bool)
    types = counts / cb.n
    dev = np.abs(types[:, None, :, :] - targets[None]).max(axis=(2, 3))
    return dev.min(axis=1) <= gamma + TYPE_TOL


def decode(m: int, z: SymbolVector, cb: Codebook, gamma: float) -> tuple[np.ndarray, int]:
    """List-decode bin m against the side information.

    Returns the bin's membership flags (see :func:`decoder_membership`) and
    the decoded codeword's global index: the unique list member, else the
    bin's first codeword.
    """
    member = decoder_membership(m, z, cb, gamma)
    first = m * cb.bin_size
    if int(member.sum()) == 1:
        return member, first + int(np.argmax(member))
    return member, first


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
    pick = sample_rows(rng, flat)
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
) -> SessionReport:
    """Run jamming, channel, encoder, decoder and reconstruction once.

    All randomness is derived from ``seed``; the code draw itself comes from
    ``code_seed`` when given (fixed code across sessions), else it is
    refreshed per session, which realizes the shared-randomness reading of
    the scheme.
    """
    spec, policy, params = config.spec, config.policy, config.params
    j = sample_jamming(jammer, x, philox_stream(seed, "jamming"))
    y, z = _draw_channel(spec, x, j, philox_stream(seed, "channel"))
    t_y = empirical_type(y)
    if code_seed is None:
        code_seed = derive_seed(seed, "code")
    cb = config.family.codebook(t_y, code_seed)
    enc = encode(y, cb, params.delta2, philox_stream(seed, "encoder"))
    member, g_dec = decode(enc.bin_index, z, cb, params.gamma)
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
    spec: ProblemSpec, n: int, delta0: float, count: int, seed: int
) -> list[SymbolVector]:
    """Draw i.i.d. source blocks conditioned on delta0-typicality, giving up
    after ``MAX_SOURCE_DRAWS`` draws."""
    gen = philox_stream(seed, "sources")
    out: list[SymbolVector] = []
    for _ in range(MAX_SOURCE_DRAWS):
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
