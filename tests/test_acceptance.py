"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from avrs.adversary import Jammer, deterministic_jammer
from avrs.bounds import (
    GridConfig,
    RateBoundSolver,
    compute_bound_report,
    minimax_distortion_game,
)
from avrs.cli import main
from avrs.coding import CodingParams, SessionConfig, simulate_session, simulate_sessions
from avrs.derandomize import certify_ensemble, sample_ensemble
from avrs.games import BilinearGame, solve_bilinear_game
from avrs.lemmas import run_conditional_typicality, run_covering, run_packing, trend_check
from avrs.mtypes import nearest_type
from avrs.rng import derive_seed, philox_stream

from conftest import classical_spec, noisy_policy, structured_instance, type_of, wz_spec
from oracles import matrix_game_value_oracle

DATA = Path(__file__).parent / "data"


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({name}): {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_ordering_invariants():
    """D0 <= D1 + 2*gap and r_lower <= r_upper + combined uncertainty on 100
    randomized binary/ternary instances, five distortion levels each."""
    start = time.time()
    rng = np.random.default_rng(11_000)
    grid = GridConfig(coarse_step=0.05, refine_step=0.01)
    accepted = 0
    attempts = 0
    floor_violations = 0
    rate_violations = 0
    evaluated_points = 0
    while accepted < 100 and attempts < 1200:
        attempts += 1
        nx = 3 if attempts % 4 == 0 else 2
        spec = structured_instance(rng, nx=nx)
        g0 = minimax_distortion_game(spec, True)
        g1 = minimax_distortion_game(spec, False)
        if g1.value - g0.value < 0.15:
            continue  # keep instances with a usable distortion window
        accepted += 1
        if g0.value > g1.value + 2 * max(g0.duality_gap, g1.duality_gap):
            floor_violations += 1
        solver_u = RateBoundSolver(spec, 2, grid)
        solver_l = RateBoundSolver(spec, 2, grid)
        for f in (0.45, 0.575, 0.7, 0.825, 0.95):
            level = g0.value + f * (g1.value - g0.value)
            up = solver_u.r_upper_point(level)
            low = solver_l.r_lower_point(level)
            evaluated_points += 1
            if low.value > up.value + up.uncertainty + low.uncertainty:
                rate_violations += 1
    elapsed = time.time() - start
    ok = (
        accepted == 100
        and floor_violations == 0
        and rate_violations == 0
        and elapsed <= 600
    )
    _report(
        1,
        "ordering invariants",
        ok,
        f"instances={accepted} points={evaluated_points} floor_viol={floor_violations} "
        f"rate_viol={rate_violations} time={elapsed:.0f}s",
    )


def _blahut_arimoto_rate(p_x: np.ndarray, dmat: np.ndarray, target: float) -> float:
    """Classical R(D) by alternating minimization plus bisection on the
    Lagrange slope; high-resolution oracle for the degenerate reduction."""

    def ba(beta: float) -> tuple[float, float]:
        q = np.full((p_x.size, dmat.shape[1]), 1.0 / dmat.shape[1])
        for _ in range(5000):
            r = p_x @ q
            qn = r[None, :] * np.exp(-beta * dmat)
            qn /= qn.sum(axis=1, keepdims=True)
            if np.abs(qn - q).max() < 1e-14:
                q = qn
                break
            q = qn
        r = p_x @ q
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(q > 0, q * np.log2(q / r[None, :]), 0.0)
        rate = float((p_x[:, None] * term).sum())
        dist = float((p_x[:, None] * q * dmat).sum())
        return rate, dist

    lo, hi = 0.0, 80.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        _, dist = ba(mid)
        if dist > target:
            lo = mid
        else:
            hi = mid
    rate, dist = ba(hi)
    assert abs(dist - target) < 1e-6
    return rate


def test_criterion_2_degenerate_reduction():
    """With no jammer, a clean observation and blind side information the
    upper bound matches classical rate distortion within 0.05 bits."""
    start = time.time()
    spec = classical_spec()
    solver = RateBoundSolver(spec, 2)  # default grid
    worst = 0.0
    for target in (0.1, 0.25):
        value = solver.r_upper_point(target).value
        oracle = _blahut_arimoto_rate(spec.p_x, spec.d, target)
        worst = max(worst, abs(value - oracle))
    elapsed = time.time() - start
    ok = worst <= 0.05 and elapsed <= 120
    _report(2, "degenerate reduction", ok, f"max_err={worst:.4f} bits time={elapsed:.0f}s")


def test_criterion_3_boundary_behavior():
    """Both bounds are exactly zero above the blind distortion floor."""
    rng = np.random.default_rng(33)
    specs = [classical_spec(), wz_spec()] + [structured_instance(rng) for _ in range(3)]
    ok = True
    for spec in specs:
        d1_val = minimax_distortion_game(spec, False).value
        report = compute_bound_report(spec, [d1_val + 0.1, d1_val * 1.5 + 0.05])
        for p in report.points:
            if (p.r_upper, p.uncertainty_upper, p.r_lower, p.uncertainty_lower) != (0.0,) * 4:
                ok = False
    _report(3, "boundary behavior", ok)


def test_criterion_4_game_solver_oracle():
    """Solver value matches exact support-enumeration minimax within 1e-4 on
    20 random 3x3 games."""
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(20):
        payoff = rng.random((3, 3))
        oracle = matrix_game_value_oracle(payoff)
        res = solve_bilinear_game(BilinearGame(payoff, (3,), (3,)))
        worst = max(worst, abs(res.value - oracle))
    ok = worst <= 1e-4
    _report(4, "game-solver oracle equivalence", ok, f"max_err={worst:.2e}")


def test_criterion_5_coding_contract():
    """Over 10^4 sessions: every non-fallback encode satisfies the joint-type
    threshold, the decoder is bitwise deterministic, and the measured bin
    rate obeys the per-type accounting with the type cost taken as eps/4."""
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.2)
    policy = noisy_policy(spec, stay=0.85)
    eps = 0.2
    params = CodingParams(eps=eps, delta2=0.25, gamma=0.25, f_eps=0.1, size_cap=2048)
    config = SessionConfig(spec, policy, params)
    family = config.family
    jam = Jammer([[0.7, 0.3], [0.7, 0.3]])
    n, sessions = 24, 10_000
    cdf = np.cumsum(spec.p_x)
    cdf[-1] = 1.0
    seeds = [derive_seed(50_000, "c5", t) for t in range(sessions)]
    xs = np.stack([np.searchsorted(cdf, philox_stream(s, "x").random(n), side="right") for s in seeds])
    batch = simulate_sessions(xs, jam, config, seeds)
    threshold_failures = 0
    determinism_failures = 0
    realized_bin_rates: dict = {}
    for t in range(sessions):
        t_y = type_of(batch.y[t], 2)
        if not batch.e_enc[t]:
            counts = np.zeros((2, 2))
            np.add.at(counts, (batch.u_encoded[t], batch.y[t]), 1.0)
            if np.abs(counts / n - family.type_data(t_y).encoder_target).max() > params.delta2 + 1e-12:
                threshold_failures += 1
        realized_bin_rates[t_y.key()] = float(batch.r_bin[t])
        if t % 50 == 0:
            again = simulate_session(xs[t], jam, config, seeds[t])
            if not (
                np.array_equal(again.u_decoded[0], batch.u_decoded[t])
                and np.array_equal(again.x_hat[0], batch.x_hat[t])
            ):
                determinism_failures += 1
    max_measured = float(batch.message_bits.max()) / n
    rate_cap = max(realized_bin_rates.values()) + eps / 4.0
    ok = (
        threshold_failures == 0
        and determinism_failures == 0
        and max_measured <= rate_cap + 1e-12
    )
    _report(
        5,
        "coding-scheme contract",
        ok,
        f"thresh_fail={threshold_failures} det_fail={determinism_failures} "
        f"rate={max_measured:.4f}<=cap={rate_cap:.4f}",
    )


def test_criterion_6_error_trends():
    """Encoder-failure and packing false-candidate frequencies fall along the
    blocklength ladder 8/16/32 at three standard errors."""
    start = time.time()
    # encoder failures: moderate threshold so small blocks visibly miss
    spec_cov = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    cfg_cov = SessionConfig(
        spec_cov,
        noisy_policy(spec_cov, stay=0.9),
        CodingParams(eps=0.2, delta2=0.15, gamma=0.25, f_eps=0.1, size_cap=2048),
    )
    cov = [
        run_covering(cfg_cov, nearest_type(np.array([0.5, 0.5]), n), trials=800, seed=61)
        for n in (8, 16, 32)
    ]
    enc_fail = [
        type(r)(r.name, r.n, 1.0 - r.empirical, None, r.sigma, r.trials, False) for r in cov
    ]
    enc_trend = trend_check(enc_fail, decreasing=True)

    # packing: bins pinned at two codewords, per-codeword hits decay
    spec_pack = wz_spec(flip_y=0.01, jam_extra=0.02, flip_z=0.01)
    cfg_pack = SessionConfig(
        spec_pack,
        noisy_policy(spec_pack, stay=0.9),
        CodingParams(eps=1.7, delta2=0.2, gamma=0.1, f_eps=0.1, size_cap=4096),
    )
    jam = deterministic_jammer((0, 0), spec_pack.w.shape[1])
    pack = [run_packing(cfg_pack, jam, n, trials=1500, seed=62) for n in (8, 16, 32)]
    pack_trend = trend_check(pack, decreasing=True)

    elapsed = time.time() - start
    ok = enc_trend.ok and pack_trend.ok and elapsed <= 900
    _report(
        6,
        "error trends",
        ok,
        f"enc_fail={[round(v, 4) for v in enc_trend.values]} "
        f"packing={[round(v, 4) for v in pack_trend.values]} time={elapsed:.0f}s",
    )


def test_criterion_7_conditional_typicality():
    """Empirical violation rate within the closed-form bound; the vacuous
    regime is flagged rather than silently passed."""
    p_s = np.array([0.5, 0.5])
    w = np.array([[0.8, 0.2], [0.2, 0.8]])
    stated = run_conditional_typicality(p_s, w, n=200, delta0=0.1, trials=4000, seed=71)
    sharp = run_conditional_typicality(p_s, w, n=200, delta0=0.25, trials=4000, seed=72)
    ok = (
        stated.bound == pytest.approx(4 * math.exp(-0.4), abs=1e-12)
        and stated.vacuous
        and stated.empirical <= stated.bound + 3 * stated.sigma
        and not sharp.vacuous
        and sharp.empirical <= sharp.bound + 3 * sharp.sigma
    )
    _report(
        7,
        "conditional typicality lemma",
        ok,
        f"rate={stated.empirical:.4f} bound={stated.bound:.3f} vacuous={stated.vacuous}; "
        f"sharp rate={sharp.empirical:.4f} bound={sharp.bound:.5f}",
    )


def test_criterion_8_elimination_technique():
    """Quadratic-size ensemble certifies within mu of the parent code; the
    member-index overhead is exactly log2(K)/n."""
    start = time.time()
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    config = SessionConfig(
        spec,
        noisy_policy(spec, stay=0.8),
        CodingParams(eps=0.2, delta2=0.2, gamma=0.25, f_eps=0.1, size_cap=2048),
    )
    n = 32
    ensemble = sample_ensemble(config, n, k=n * n, master_seed=17)
    jam = Jammer([[0.65, 0.35], [0.65, 0.35]])
    report = certify_ensemble(ensemble, [jam], x_count=2, trials_per_member=1, mu=0.02, seed=99)

    big = sample_ensemble(config, 100, k=100 * 100, master_seed=0)
    overhead_exact = abs(big.rate_overhead - 2 * math.log2(100) / 100) < 1e-15

    elapsed = time.time() - start
    ok = report.passed and overhead_exact
    _report(
        8,
        "elimination technique",
        ok,
        f"max_excess={report.max_excess:+.4f}<=mu={report.mu} overhead_exact={overhead_exact} "
        f"time={elapsed:.0f}s",
    )


def test_criterion_9_cli_reproducibility(tmp_path):
    """Every subcommand yields byte-identical outputs across reruns and
    across worker counts 1 and 4 under a fixed seed."""
    spec = str(DATA / "spec_binary.json")
    policy = str(DATA / "policy_binary.json")
    commands = {
        "bounds": [
            "bounds", "--spec", spec, "--d-grid", "0.23", "--coarse-step", "0.05",
            "--refine-step", "0.01", "--u-upper", "2", "--u-lower", "2", "--seed", "4",
        ],
        "simulate": [
            "simulate", "--spec", spec, "--policy", policy, "--n", "10",
            "--trials", "30", "--eps", "0.3", "--cap", "128", "--seed", "4",
            "--jammers", "all-deterministic",
        ],
        "derandomize": [
            "derandomize", "--spec", spec, "--policy", policy, "--n", "6",
            "--K", "9", "--trials", "1", "--mu", "0.5", "--x-samples", "1",
            "--eps", "0.3", "--cap", "64", "--seed", "4",
        ],
        "lemmas": [
            "lemmas", "--spec", spec, "--policy", policy, "--n", "8",
            "--n-ladder", "8,12", "--trials", "50", "--eps", "0.3",
            "--cap", "128", "--seed", "4",
        ],
    }
    ok = True
    details = []
    for name, args in commands.items():
        outs = {}
        for label, extra in (
            ("run1", ["--threads", "1"]),
            ("run2", ["--threads", "1"]),
            ("t4", ["--threads", "4"]),
        ):
            out = tmp_path / name / label
            rc = main(args + ["--out-dir", str(out)] + extra)
            if rc != 0:
                ok = False
                details.append(f"{name}:rc={rc}")
            outs[label] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()
            }
        if not (outs["run1"] == outs["run2"] == outs["t4"]):
            ok = False
            details.append(f"{name}:outputs differ")
    _report(9, "CLI reproducibility", ok, "; ".join(details) if details else "all byte-identical")
