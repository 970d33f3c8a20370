"""Elimination of shared randomness: polynomial code ensembles, their
certification against the parent randomized code, the concentration-bound
calculators behind the ensemble size, and the stochastic-encoder wrapper
that transmits the chosen member index.

The exponential union bound here ranges over source/jamming sequence pairs;
ranging over whole jamming functions would grow doubly exponentially in the
blocklength, which is why the maximum-distortion criterion (not the
source-averaged one) is the workable one for ensembles of polynomial size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import JammerStrategy
from .coding import SessionConfig, sample_typical_sources, simulate_session
from .errors import UsageError
from .rng import derive_seed, philox_stream

__all__ = [
    "Ensemble",
    "StochasticEncoderCode",
    "CertificationCell",
    "CertificationReport",
    "sample_ensemble",
    "certify_ensemble",
    "bernstein_bound",
    "union_bound",
    "build_stochastic_code",
    "run_stochastic_session",
    "StochasticSessionReport",
]


@dataclass(frozen=True)
class Ensemble:
    """K deterministic code draws from one randomized code, identified by
    reproducible member seeds."""

    config: SessionConfig
    n: int
    member_seeds: tuple[int, ...]
    master_seed: int

    @property
    def size(self) -> int:
        return len(self.member_seeds)


def sample_ensemble(
    config: SessionConfig, n: int, k: int | None = None, master_seed: int = 0
) -> Ensemble:
    """Draw an ensemble of ``k`` member codes (default n^2)."""
    if k is None:
        k = n * n
    if k < 1:
        raise UsageError("ensemble size must be >= 1")
    seeds = tuple(derive_seed(master_seed, "member", i) for i in range(k))
    return Ensemble(config, n, seeds, master_seed)


@dataclass(frozen=True)
class CertificationCell:
    x_index: int
    jammer_index: int
    ensemble_mean: float
    parent_mean: float
    excess: float
    std_error: float
    sessions: int


@dataclass(frozen=True)
class CertificationReport:
    """Spot check of an ensemble against its parent randomized code.

    Sampled typical sources and the given jammers stand in for the full
    maxima; the report states the sample sizes rather than claiming the
    exhaustive worst case.
    """

    cells: tuple[CertificationCell, ...]
    max_excess: float
    mu: float
    passed: bool
    k: int
    n: int
    trials_per_member: int
    note: str = (
        "spot check over sampled typical sources and listed jammers; "
        "not an enumeration of all typical blocks"
    )


def certify_ensemble(
    ensemble: Ensemble,
    jammer_set: list[JammerStrategy],
    x_count: int,
    trials_per_member: int,
    mu: float,
    seed: int,
    delta0: float | None = None,
) -> CertificationReport:
    """Compare ensemble-averaged distortion to the parent code's estimate.

    For every sampled typical source block and jammer, the ensemble side
    averages ``trials_per_member`` sessions per member at that member's fixed
    code; the parent side runs the same number of sessions with a fresh code
    draw each time.  Passing means the worst excess stays within ``mu``.
    """
    if mu <= 0:
        raise UsageError("mu must be > 0")
    if trials_per_member < 1:
        raise UsageError("trials_per_member must be >= 1")
    cfg = ensemble.config
    n = ensemble.n
    if delta0 is None:
        delta0 = n ** (-1.0 / 3.0)
    xs = sample_typical_sources(cfg.spec, n, delta0, x_count, derive_seed(seed, "x"))
    k = ensemble.size
    cells = []
    max_excess = -math.inf
    for ix, x in enumerate(xs):
        for ij, jam in enumerate(jammer_set):
            ens_vals = np.empty(k * trials_per_member)
            for i, member_seed in enumerate(ensemble.member_seeds):
                for t in range(trials_per_member):
                    s = derive_seed(seed, "ens", ix, ij, i, t)
                    ens_vals[i * trials_per_member + t] = simulate_session(
                        x, jam, cfg, s, code_seed=member_seed
                    ).distortion
            par_vals = np.empty(k * trials_per_member)
            for t in range(k * trials_per_member):
                s = derive_seed(seed, "parent", ix, ij, t)
                par_vals[t] = simulate_session(
                    x, jam, cfg, s, code_seed=derive_seed(s, "fresh-code")
                ).distortion
            ens_mean = float(ens_vals.mean())
            par_mean = float(par_vals.mean())
            se = float(
                math.sqrt(ens_vals.var(ddof=1) / ens_vals.size + par_vals.var(ddof=1) / par_vals.size)
            )
            excess = ens_mean - par_mean
            cells.append(
                CertificationCell(ix, ij, ens_mean, par_mean, excess, se, int(ens_vals.size))
            )
            max_excess = max(max_excess, excess)
    return CertificationReport(
        cells=tuple(cells),
        max_excess=max_excess,
        mu=mu,
        passed=max_excess <= mu,
        k=k,
        n=n,
        trials_per_member=trials_per_member,
    )


def _check_alpha(alpha: float, b: float) -> None:
    if b <= 0 or not math.isfinite(b):
        raise UsageError("b must lie in (0, inf)")
    limit = min(1.0, (b / 2.0) * math.exp(-2.0 * b))
    if not 0 < alpha <= limit + 1e-15:
        raise UsageError(
            f"alpha={alpha} outside the admissible range (0, min(1, (b/2)e^(-2b)) = {limit:.6g}]"
        )


def bernstein_bound(mu: float, b: float, alpha: float, n_samples: int) -> float:
    """Tail bound exp(-(alpha mu + alpha^2 b^2) N) for centered averages of
    independent variables bounded by b."""
    if mu <= 0:
        raise UsageError("mu must be > 0")
    _check_alpha(alpha, b)
    if n_samples < 1:
        raise UsageError("n_samples must be >= 1")
    return math.exp(-(alpha * mu + alpha**2 * b**2) * n_samples)


def union_bound(
    n: int, k: int, mu: float, b: float, alpha: float, x_size: int, j_size: int
) -> float:
    """Probability that some (source block, jamming block) pair sees ensemble
    distortion exceed its mean by mu: |X|^n |J|^n exp(-(alpha mu + alpha^2 b^2) K),
    capped at 1.  With K = n^2 the exponent wins and the bound vanishes in n.
    """
    if mu <= 0:
        raise UsageError("mu must be > 0")
    _check_alpha(alpha, b)
    if n < 1 or k < 1 or x_size < 1 or j_size < 1:
        raise UsageError("n, k and alphabet sizes must be >= 1")
    exponent = k * (alpha * mu + alpha**2 * b**2) - n * math.log(x_size * j_size)
    return min(1.0, math.exp(-exponent))


@dataclass(frozen=True)
class StochasticEncoderCode:
    """Private-randomness wrapper: the encoder draws a member index per
    session and prepends it; the decoder dispatches on it deterministically.

    ``rate_overhead`` is the analytical index cost log2(K)/n used in the rate
    accounting (2 log2(n)/n at K = n^2); ``index_bits`` is the integer header
    physically prepended per session."""

    ensemble: Ensemble
    rate_overhead: float
    index_bits: int
    parent_rate: float | None = None

    @property
    def rate(self) -> float | None:
        if self.parent_rate is None:
            return None
        return self.parent_rate + self.rate_overhead


def build_stochastic_code(
    ensemble: Ensemble, parent_rate: float | None = None
) -> StochasticEncoderCode:
    k = ensemble.size
    overhead = math.log2(k) / ensemble.n if k > 1 else 0.0
    index_bits = math.ceil(math.log2(k)) if k > 1 else 0
    return StochasticEncoderCode(ensemble, overhead, index_bits, parent_rate)


@dataclass(frozen=True)
class StochasticSessionReport:
    member_index: int
    index_bits: int
    distortion: float
    e_enc: bool
    e_dec1: bool
    e_dec2: bool
    message_bits: int


def run_stochastic_session(
    code: StochasticEncoderCode,
    x,
    jammer: JammerStrategy,
    seed: int,
) -> StochasticSessionReport:
    """One session of the stochastic-encoder code: draw the member privately,
    run that member's deterministic code end to end."""
    k = code.ensemble.size
    idx = int(philox_stream(seed, "member-index").integers(k)) if k > 1 else 0
    report = simulate_session(
        x,
        jammer,
        code.ensemble.config,
        derive_seed(seed, "session"),
        code_seed=code.ensemble.member_seeds[idx],
    )
    return StochasticSessionReport(
        member_index=idx,
        index_bits=code.index_bits,
        distortion=report.distortion,
        e_enc=report.e_enc,
        e_dec1=report.e_dec1,
        e_dec2=report.e_dec2,
        message_bits=report.message_bits + code.index_bits,
    )
