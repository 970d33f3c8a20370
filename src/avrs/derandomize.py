"""Elimination of shared randomness: polynomial code ensembles and their
certification against the parent randomized code.

The ensemble size K = n^2 follows the paper's elimination argument, a union
bound over source/jamming sequence pairs; ranging over whole jamming
functions would grow doubly exponentially in the blocklength, which is why
the maximum-distortion criterion (not the source-averaged one) is the
workable one for ensembles of polynomial size.  That bound is not computed
here: certification is an empirical spot check.  Sending the member index
costs the rate overhead log2(K)/n that ``Ensemble.rate_overhead`` reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adversary import Jammer
from .coding import SessionConfig, sample_typical_sources, simulate_sessions
from .errors import UsageError
from .rng import derive_seed

__all__ = [
    "Ensemble",
    "CertificationCell",
    "CertificationReport",
    "sample_ensemble",
    "certify_ensemble",
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

    @property
    def rate_overhead(self) -> float:
        """Rate cost log2(K)/n of sending the member index (2 log2(n)/n at
        K = n^2)."""
        return math.log2(self.size) / self.n if self.size > 1 else 0.0

    @property
    def index_bits(self) -> int:
        """Integer header length that carries the member index."""
        return math.ceil(math.log2(self.size)) if self.size > 1 else 0


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
    note: str = (
        "spot check over sampled typical sources and listed jammers; "
        "not an enumeration of all typical blocks"
    )


def certify_ensemble(
    ensemble: Ensemble,
    jammer_set: list[Jammer],
    x_count: int,
    trials_per_member: int,
    mu: float,
    seed: int,
) -> CertificationReport:
    """Compare ensemble-averaged distortion to the parent code's estimate.

    For every sampled source block, each delta0-typical with delta0 =
    n^(-1/3), and every jammer, the ensemble side averages
    ``trials_per_member`` sessions per member at that member's fixed code;
    the parent side runs the same number of sessions with a fresh code draw
    each time.  Passing means the worst excess stays within ``mu``.
    """
    if mu <= 0:
        raise UsageError("mu must be > 0")
    if trials_per_member < 1:
        raise UsageError("trials_per_member must be >= 1")
    if ensemble.size * trials_per_member < 2:
        raise UsageError(
            "ensemble size times trials_per_member must be >= 2: a cell's standard "
            "error needs two sessions on each side"
        )
    if x_count < 1:
        raise UsageError("x_count must be >= 1")
    if not jammer_set:
        raise UsageError("jammer_set must be non-empty")
    cfg = ensemble.config
    n = ensemble.n
    delta0 = n ** (-1.0 / 3.0)
    x_block = sample_typical_sources(cfg.spec, n, delta0, x_count, derive_seed(seed, "x"))
    k = ensemble.size
    trials = trials_per_member
    # one engine call per jammer and side; the member side runs member-major,
    # session (i, ix, t) running member i's code on source ix
    ens_xs = np.tile(np.repeat(x_block, trials, axis=0), (k, 1))
    ens_codes = [code for code in ensemble.member_seeds for _ in range(x_count * trials)]
    par_xs = np.repeat(x_block, k * trials, axis=0)
    ens = np.empty((len(jammer_set), k, x_count, trials))
    par = np.empty((len(jammer_set), x_count, k * trials))
    for ij, jam in enumerate(jammer_set):
        seeds = [
            derive_seed(seed, "ens", ix, ij, i, t)
            for i in range(k)
            for ix in range(x_count)
            for t in range(trials)
        ]
        ens[ij] = simulate_sessions(ens_xs, jam, cfg, seeds, ens_codes).distortion.reshape(ens.shape[1:])
        seeds = [derive_seed(seed, "parent", ix, ij, t) for ix in range(x_count) for t in range(k * trials)]
        codes = [derive_seed(s, "fresh-code") for s in seeds]
        par[ij] = simulate_sessions(par_xs, jam, cfg, seeds, codes).distortion.reshape(par.shape[1:])
    cells = []
    max_excess = -math.inf
    for ix in range(x_count):
        for ij in range(len(jammer_set)):
            ens_vals = ens[ij, :, ix, :].ravel()
            par_vals = par[ij, ix]
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
    )
