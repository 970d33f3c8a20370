"""Statistical harnesses for the typicality, covering, packing and Markov-
chain concentration statements behind the coding scheme, and the rungs of a
blocklength ladder that run them.

Every harness counts its hits over its trials and reports them with the
closed-form bound when one exists; the empirical frequency, the binomial
standard error and the verdict are derived from those counts, and no
verdict is sharper than three standard errors.  Bounds that evaluate above
one at the requested blocklength are flagged vacuous rather than silently
passing.  Where the underlying statements only assert the existence of
positive exponents, the harness measures the empirical exponent instead of
assuming a value.  ``run_rung`` owns a rung: which harnesses it runs, in
which order, on which seeds and j = 0 inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import Codebook, SessionConfig, encode, simulate_sessions
from .adversary import Jammer, trivial_jammer
from .errors import UsageError
from .mtypes import TYPE_TOL, TypeTable, nearest_type, pair_counts, type_template
from .rng import cumulative, derive_seed, inverse_cdf, philox_stream, sample_indices

__all__ = [
    "HarnessResult",
    "trend_check",
    "run_conditional_typicality",
    "run_covering",
    "run_packing",
    "run_markov_conclusion",
    "run_rung",
    "ladder_rows",
]


@dataclass(frozen=True)
class HarnessResult:
    """One harness measurement: the hits among the trials, and the
    closed-form bound on their frequency, if any.

    ``verdict`` is "n/a" without a bound, "vacuous" for a vacuous one, and
    otherwise "pass" when the frequency stays within three standard errors
    above the bound, else "fail"."""

    name: str
    n: int
    hits: int
    trials: int
    bound: float | None

    @property
    def empirical(self) -> float:
        """The hit frequency; 0.0 without trials."""
        return self.hits / self.trials if self.trials else 0.0

    @property
    def sigma(self) -> float:
        """The plug-in binomial standard error of ``empirical``; 0.0 below
        two trials."""
        if self.trials <= 1:
            return 0.0
        p_hat = self.empirical
        return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / self.trials)

    @property
    def vacuous(self) -> bool:
        """Whether the bound is at least one, so that it asserts nothing."""
        return self.bound is not None and self.bound >= 1.0

    @property
    def verdict(self) -> str:
        if self.bound is None:
            return "n/a"
        if self.vacuous:
            return "vacuous"
        return "pass" if self.empirical <= self.bound + 3.0 * self.sigma else "fail"


def trend_check(results: list[HarnessResult], decreasing: bool = True) -> bool:
    """Whether a harness frequency moves in the stated direction along a
    blocklength ladder: no step moves the wrong way beyond three standard
    errors, and the endpoints differ in the stated direction by three."""
    values = [r.empirical for r in results]
    sigmas = [r.sigma for r in results]
    for a, b, sa, sb in zip(values, values[1:], sigmas, sigmas[1:]):
        slack = 3.0 * math.hypot(sa, sb)
        if (b > a + slack) if decreasing else (b < a - slack):
            return False
    net = values[0] - values[-1] if decreasing else values[-1] - values[0]
    return net >= 3.0 * math.hypot(sigmas[0], sigmas[-1])


def run_conditional_typicality(
    p_s: np.ndarray,
    w_ts: np.ndarray,
    n: int,
    delta0: float,
    trials: int,
    seed: int,
) -> HarnessResult:
    """Frequency that a memoryless output fails joint 3·delta0 typicality
    with a fixed delta0-typical input, against |S||T| exp(-2 n delta0^3).

    ``p_s`` is the input pmf (S,) and ``w_ts`` the channel, one pmf over T
    per input symbol (S, T)."""
    if delta0 <= 0:
        raise UsageError("delta0 must be > 0")
    if trials < 1:
        raise UsageError("trials must be >= 1")
    t_s = nearest_type(p_s, n)
    if float(np.abs(t_s.probabilities - p_s).max()) > delta0 + TYPE_TOL:
        raise UsageError(
            f"no delta0-typical input block exists at n={n}: the closest type "
            f"deviates by {np.abs(t_s.probabilities - p_s).max():.4f}"
        )
    s = type_template(t_s)
    ns, nt = w_ts.shape
    joint_target = p_s[:, None] * w_ts
    # trial t's output block takes row t of one (trials, n) block of uniforms
    uniforms = philox_stream(seed, "cond-typicality").random((trials, n))
    outputs = inverse_cdf(cumulative(w_ts[s]), uniforms)
    counts = pair_counts(np.broadcast_to(s, (trials, 1, n)), outputs, ns, nt)[:, 0]
    dev = np.abs(counts / n - joint_target).max(axis=(1, 2))
    violations = int((dev > 3.0 * delta0 + TYPE_TOL).sum())
    bound = ns * nt * math.exp(-2.0 * n * delta0**3)
    return HarnessResult("conditional-typicality", n, violations, trials, bound)


def run_covering(
    config: SessionConfig, t_y: TypeTable, trials: int, seed: int
) -> HarnessResult:
    """Success rate of the encoder (no fallback) over uniform draws from the
    type class of ``t_y`` and fresh code draws."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    n = t_y.n
    template = type_template(t_y)
    data = config.family.type_data(t_y)
    gen = philox_stream(seed, "covering")
    successes = 0
    for t in range(trials):
        cb = Codebook(data, derive_seed(seed, "code", t))
        res = encode(gen.permutation(template), cb, config.delta2, philox_stream(seed, "enc", t))
        successes += 0 if res.fallback_used else 1
    return HarnessResult("covering", n, successes, trials, None)


def run_packing(
    config: SessionConfig,
    jammer: Jammer,
    n: int,
    trials: int,
    seed: int,
) -> HarnessResult:
    """Frequency, among sessions whose encoder succeeded, that some other
    codeword of the sent bin also lands in the decoder's list: the trials
    of the result are those sessions."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    spec = config.spec
    gen = philox_stream(seed, "packing-sources")
    xs = sample_indices(gen, spec.p_x, (trials, n))
    seeds = [derive_seed(seed, "trial", t) for t in range(trials)]
    batch = simulate_sessions(xs, jammer, config, seeds)
    effective = int((~batch.e_enc).sum())
    false_candidates = int((~batch.e_enc & batch.e_dec2).sum())
    return HarnessResult("packing", n, false_candidates, effective, None)


def run_markov_conclusion(
    config: SessionConfig,
    jammer: Jammer,
    n: int,
    delta4: float,
    trials: int,
    seed: int,
) -> HarnessResult:
    """Frequency that the full five-tuple (x, j, y, z, u) of a session fails
    delta4 joint typicality against the chain law built from the realized
    jamming conditional type.

    Conditioning rows for source symbols that never occur in x fall back to
    the marginal type of j, a fixed convention recorded here.  All trials
    are checked at once, on (trials, X, J, Y, Z, U) arrays of chain-law
    targets and five-tuple counts.
    """
    if delta4 < 0:
        raise UsageError("delta4 must be >= 0")
    if trials < 1:
        raise UsageError("trials must be >= 1")
    spec = config.spec
    nx, nj = spec.w.shape[:2]
    x_block = sample_indices(philox_stream(seed, "markov-sources"), spec.p_x, (trials, n))
    seeds = [derive_seed(seed, "trial", t) for t in range(trials)]
    batch = simulate_sessions(x_block, jammer, config, seeds)
    pair = pair_counts(batch.x[:, None, :], batch.j, nx, nj)[:, 0]
    x_counts = pair.sum(axis=2, keepdims=True)
    t_j_given_x = np.where(x_counts > 0, pair / np.maximum(x_counts, 1), pair.sum(axis=1, keepdims=True) / n)
    target = np.einsum(
        "x,txj,xjyz,yu->txjyzu", spec.p_x, t_j_given_x, spec.w, config.policy.p_u_given_y, optimize=True
    )
    cells = np.ravel_multi_index(
        (np.arange(trials)[:, None], batch.x, batch.j, batch.y, batch.z, batch.u_encoded),
        target.shape,
    )
    counts = np.bincount(cells.ravel(), minlength=target.size).reshape(target.shape)
    dev = np.abs(counts / n - target).reshape(trials, -1).max(axis=1)
    violations = int((dev > delta4 + TYPE_TOL).sum())
    return HarnessResult("markov-conclusion", n, violations, trials, None)


# the --harness choice names, in the order a rung runs them
HARNESSES = ("cond-typicality", "covering", "packing", "markov")


def run_rung(
    config: SessionConfig,
    n: int,
    harnesses,
    trials: int,
    delta0: float,
    delta4: float,
    seed: int,
) -> list[HarnessResult]:
    """The results of one ladder rung at blocklength n: each harness whose
    choice name is in ``harnesses``, in HARNESSES order, none when
    ``trials`` is 0.

    Every harness runs at j = 0: against the trivial jammer, or on the
    channel p(y|x) with the first jamming symbol, covering the type class
    nearest its output law.  Harness h draws from derive_seed(seed, label,
    n), its label being "ct", "cov", "pk" or "mk".
    """
    spec = config.spec
    jammer = trivial_jammer(spec)
    w_ts = spec.w.sum(axis=3)[:, 0, :]  # p(y | x) with the first jamming symbol
    p_y = np.einsum("x,xy->y", spec.p_x, w_ts)
    # each harness is looked up when called, so a replaced module attribute
    # (a profiler's wrapper, say) is the one that runs
    runs = {
        "cond-typicality": lambda: run_conditional_typicality(
            spec.p_x, w_ts, n, delta0, trials, derive_seed(seed, "ct", n)
        ),
        "covering": lambda: run_covering(config, nearest_type(p_y, n), trials, derive_seed(seed, "cov", n)),
        "packing": lambda: run_packing(config, jammer, n, trials, derive_seed(seed, "pk", n)),
        "markov": lambda: run_markov_conclusion(
            config, jammer, n, delta4, trials, derive_seed(seed, "mk", n)
        ),
    }
    return [runs[h]() for h in HARNESSES if h in harnesses] if trials >= 1 else []


# ---------------------------------------------------------------------------
# the lemmas.csv table of a blocklength ladder

LADDER_COLUMNS = ["harness", "n", "empirical", "bound", "sigma", "verdict"]

# the harnesses checked for a trend along the ladder, and whether their
# frequency should decrease
TRENDS = (("covering", False), ("packing", True), ("markov-conclusion", True))


def ladder_rows(results: list[HarnessResult]) -> list[list]:
    """One LADDER_COLUMNS row per result, then one trend row per TRENDS
    harness measured on two or more rungs: its change from the first rung
    to the last, at the last rung's n, with the trend check's verdict."""
    rows = [[r.name, r.n, r.empirical, r.bound, r.sigma, r.verdict] for r in results]
    for name, decreasing in TRENDS:
        series = [r for r in results if r.name == name]
        if len(series) >= 2:
            change = series[-1].empirical - series[0].empirical
            verdict = "pass" if trend_check(series, decreasing) else "fail"
            rows.append([f"{name}-trend", series[-1].n, change, None, 0.0, verdict])
    return rows
