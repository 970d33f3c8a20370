"""Elimination of shared randomness: polynomial code ensembles and their
certification against the parent randomized code.

The ensemble size K = n^2 follows the paper's elimination argument, a union
bound over source/jamming sequence pairs; ranging over whole jamming
functions would grow doubly exponentially in the blocklength, which is why
the maximum-distortion criterion (not the source-averaged one) is the
workable one for ensembles of polynomial size.  That bound is not computed
here: certification is an empirical spot check.  An ensemble is K
deterministic code draws from one randomized code, identified by
reproducible member seeds; sending the member index costs the rate overhead
log2(K)/n that :func:`index_cost` reports.
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
    "CertificationCell",
    "CertificationReport",
    "index_cost",
    "certify_ensemble",
]


def index_cost(k: int, n: int) -> tuple[float, int]:
    """The rate overhead log2(K)/n of sending the member index of a K-member
    ensemble at blocklength n (2 log2(n)/n at K = n^2), and the integer
    header length that carries it; both are zero at K = 1."""
    return math.log2(k) / n, math.ceil(math.log2(k))


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
    exhaustive worst case.  ``rate_overhead`` and ``index_bits`` are the
    ensemble's :func:`index_cost`.
    """

    cells: tuple[CertificationCell, ...]
    max_excess: float
    mu: float
    passed: bool
    k: int
    n: int
    rate_overhead: float
    index_bits: int
    note: str = (
        "spot check over sampled typical sources and listed jammers; "
        "not an enumeration of all typical blocks"
    )


def certify_ensemble(
    config: SessionConfig,
    n: int,
    jammers: list[Jammer],
    x_count: int,
    trials_per_member: int,
    mu: float,
    seed: int,
    k: int | None = None,
) -> CertificationReport:
    """Certify an ensemble of ``k`` member codes (default n^2) against the
    parent code's estimate.

    Member i's code seed is ``derive_seed(derive_seed(seed, "ensemble"),
    "member", i)``.  For every sampled delta0-typical source block and every
    jammer, the ensemble side averages ``trials_per_member`` sessions per
    member at that member's fixed code; the parent side runs the same number
    of sessions with a fresh code draw each time.  The sessions of both sides
    draw from ``derive_seed(seed, "certify")``.  Passing means the worst
    excess stays within ``mu``.
    """
    if k is None:
        k = n * n
    if k < 1:
        raise UsageError("ensemble size must be >= 1")
    if mu <= 0:
        raise UsageError("mu must be > 0")
    if trials_per_member < 1:
        raise UsageError("trials_per_member must be >= 1")
    if k * trials_per_member < 2:
        raise UsageError(
            "ensemble size times trials_per_member must be >= 2: a cell's standard "
            "error needs two sessions on each side"
        )
    if x_count < 1:
        raise UsageError("x_count must be >= 1")
    if not jammers:
        raise UsageError("jammers must be non-empty")
    master = derive_seed(seed, "ensemble")
    member_seeds = [derive_seed(master, "member", i) for i in range(k)]
    cert = derive_seed(seed, "certify")
    x_block = sample_typical_sources(config.spec, n, x_count, derive_seed(cert, "x"))
    trials = trials_per_member
    # one engine call per jammer and side; the member side runs member-major,
    # session (i, ix, t) running member i's code on source ix
    ens_xs = np.tile(np.repeat(x_block, trials, axis=0), (k, 1))
    ens_codes = [code for code in member_seeds for _ in range(x_count * trials)]
    par_xs = np.repeat(x_block, k * trials, axis=0)
    ens = np.empty((len(jammers), k, x_count, trials))
    par = np.empty((len(jammers), x_count, k * trials))
    for ij, jam in enumerate(jammers):
        seeds = [
            derive_seed(cert, "ens", ix, ij, i, t)
            for i in range(k)
            for ix in range(x_count)
            for t in range(trials)
        ]
        ens[ij] = simulate_sessions(ens_xs, jam, config, seeds, ens_codes).distortion.reshape(ens.shape[1:])
        seeds = [derive_seed(cert, "parent", ix, ij, t) for ix in range(x_count) for t in range(k * trials)]
        codes = [derive_seed(s, "fresh-code") for s in seeds]
        par[ij] = simulate_sessions(par_xs, jam, config, seeds, codes).distortion.reshape(par.shape[1:])
    cells = []
    max_excess = -math.inf
    for ix in range(x_count):
        for ij in range(len(jammers)):
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
    rate_overhead, index_bits = index_cost(k, n)
    return CertificationReport(
        cells=tuple(cells),
        max_excess=max_excess,
        mu=mu,
        passed=max_excess <= mu,
        k=k,
        n=n,
        rate_overhead=rate_overhead,
        index_bits=index_bits,
    )
