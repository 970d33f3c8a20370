"""Statistical harnesses for the typicality, covering, packing and Markov-
chain concentration statements behind the coding scheme.

Every harness reports the empirical value together with the closed-form
bound when one exists, the binomial standard error and the sample size, and
never asserts anything sharper than three standard errors.  Bounds that
evaluate above one at the requested blocklength are flagged vacuous rather
than silently passing.  Where the underlying statements only assert the
existence of positive exponents, the harness measures the empirical
exponent instead of assuming a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coding import Codebook, SessionConfig, encode, simulate_sessions
from .adversary import Jammer
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
    "ladder_rows",
]


@dataclass(frozen=True)
class HarnessResult:
    """One harness measurement: empirical frequency, bound (if any), the
    binomial standard error, and whether the bound is vacuous (>= 1).

    ``verdict`` is "n/a" without a bound, "vacuous" for a vacuous one, and
    otherwise "pass" when the frequency stays within three standard errors
    above the bound, else "fail"."""

    name: str
    n: int
    empirical: float
    bound: float | None
    sigma: float
    trials: int
    vacuous: bool

    @property
    def verdict(self) -> str:
        if self.bound is None:
            return "n/a"
        if self.vacuous:
            return "vacuous"
        return "pass" if self.empirical <= self.bound + 3.0 * self.sigma else "fail"


def _binomial_sigma(p_hat: float, trials: int) -> float:
    if trials <= 1:
        return 0.0
    return math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / trials)


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
    rate = int((dev > 3.0 * delta0 + TYPE_TOL).sum()) / trials
    bound = ns * nt * math.exp(-2.0 * n * delta0**3)
    return HarnessResult(
        "conditional-typicality", n, rate, bound, _binomial_sigma(rate, trials), trials, bound >= 1.0
    )


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
    rate = successes / trials
    return HarnessResult("covering", n, rate, None, _binomial_sigma(rate, trials), trials, False)


def run_packing(
    config: SessionConfig,
    jammer: Jammer,
    n: int,
    trials: int,
    seed: int,
) -> HarnessResult:
    """Frequency, among sessions whose encoder succeeded, that some other
    codeword of the sent bin also lands in the decoder's list."""
    if trials < 1:
        raise UsageError("trials must be >= 1")
    spec = config.spec
    gen = philox_stream(seed, "packing-sources")
    xs = sample_indices(gen, spec.p_x, (trials, n))
    seeds = [derive_seed(seed, "trial", t) for t in range(trials)]
    batch = simulate_sessions(xs, jammer, config, seeds)
    effective = int((~batch.e_enc).sum())
    false_candidates = int((~batch.e_enc & batch.e_dec2).sum())
    rate = false_candidates / effective if effective else 0.0
    return HarnessResult(
        "packing", n, rate, None, _binomial_sigma(rate, effective), effective, False
    )


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
    the marginal type of j, a fixed convention recorded here.
    """
    if delta4 < 0:
        raise UsageError("delta4 must be >= 0")
    if trials < 1:
        raise UsageError("trials must be >= 1")
    spec, policy = config.spec, config.policy
    nx, nj, ny, nz = spec.w.shape
    nu = policy.p_u_given_y.shape[1]
    gen = philox_stream(seed, "markov-sources")
    x_block = sample_indices(gen, spec.p_x, (trials, n))
    seeds = [derive_seed(seed, "trial", t) for t in range(trials)]
    batch = simulate_sessions(x_block, jammer, config, seeds)
    violations = 0
    for xs, js, ys, zs, us in zip(batch.x, batch.j, batch.y, batch.z, batch.u_encoded):
        pair = pair_counts(xs[None, :], js, nx, nj)[0]
        x_counts = pair.sum(axis=1)
        t_j_given_x = np.empty((nx, nj))
        marg = pair.sum(axis=0) / n
        for a in range(nx):
            t_j_given_x[a] = pair[a] / x_counts[a] if x_counts[a] > 0 else marg
        target = np.einsum(
            "x,xj,xjyz,yu->xjyzu",
            spec.p_x,
            t_j_given_x,
            spec.w,
            policy.p_u_given_y,
            optimize=True,
        )
        comp = (((xs * nj + js) * ny + ys) * nz + zs) * nu + us
        counts = np.bincount(comp, minlength=nx * nj * ny * nz * nu).reshape(nx, nj, ny, nz, nu)
        dev = np.abs(counts / n - target).max()
        if dev > delta4 + TYPE_TOL:
            violations += 1
    rate = violations / trials
    return HarnessResult(
        "markov-conclusion", n, rate, None, _binomial_sigma(rate, trials), trials, False
    )


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
