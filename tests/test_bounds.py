import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import avrs.bounds
from avrs.bounds import (
    GridConfig,
    RateBoundSolver,
    compute_bound_report,
    minimax_distortion_game,
    per_type_rates,
    simplex_lattice,
    simplex_window,
)
from avrs.errors import EnumerationTooLargeError, InfeasibleDistortionError, UsageError
from avrs.games import solve_bilinear_game
from avrs.mtypes import TypeTable
from avrs.model import load_problem_spec

from conftest import (
    binary_wz_spec,
    blind_y_spec,
    classical_spec,
    identity_policy,
    identity_z_spec,
    dense_instance,
    make_spec,
    structured_instance,
    two_view_instance,
    wz_spec,
    xor_spec,
)
from oracles import (
    binary_wyner_ziv_rate,
    info_matrix_oracle,
    min_e_over_zeta_oracle,
    r_lower_point_oracle,
    r_upper_point_oracle,
)


def h2(p):
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p)) if 0 < p < 1 else 0.0


FAST_GRID = GridConfig(coarse_step=0.05, refine_step=0.01)


def table_instances(rng):
    """Every fixed conftest instance and two random ones of each random kind."""
    specs = [classical_spec(0.3), xor_spec(), identity_z_spec(), wz_spec(), blind_y_spec()]
    for build in (lambda: structured_instance(rng, nx=3), lambda: dense_instance(rng)):
        specs += [build(), build()]
    return specs + [two_view_instance(rng) for _ in range(2)]


class TestGrids:
    def test_lattice_covers_simplex(self):
        pts = simplex_lattice(3, 0.25)
        assert pts.shape == (15, 3)
        assert np.allclose(pts.sum(axis=1), 1.0)
        assert any(np.allclose(p, [1, 0, 0]) for p in pts)

    def test_window_contains_center(self):
        c = np.array([0.3, 0.7])
        w = simplex_window(c, 0.05, 0.1)
        assert any(np.allclose(p, c) for p in w)
        assert np.abs(w - c).max() <= 0.1 + 1e-12


class TestSolverTables:
    GRID = GridConfig(coarse_step=0.1, refine_step=0.05)

    # the |U| = 3 tables use a coarser grid to keep the oracle's joint tables small
    GRID_U3 = GridConfig(coarse_step=0.2, refine_step=0.1)

    def kernel_cases(self, rng):
        """(solver, policies, jammers) on every table instance at |U| = 2 and 3."""
        for spec in table_instances(rng):
            for u_size, grid in ((2, self.GRID), (3, self.GRID_U3)):
                solver = RateBoundSolver(spec, u_size, grid)
                yield solver, solver._p_candidates, solver._q_candidates

    @pytest.mark.parametrize("chunk_cells", [1 << 20, 64])
    def test_info_rows_on_a_policy_subset_are_bit_equal(self, monkeypatch, rng, chunk_cells):
        # refinement evaluates rows of a window of policies against a whole
        # jammer grid and must read the bits the full table holds
        for spec in table_instances(rng):
            solver = RateBoundSolver(spec, 2, self.GRID)
            p_arr, q_arr = solver._p_candidates, solver._q_candidates
            q_local = avrs.bounds._refine_window(q_arr[rng.integers(q_arr.shape[0])], self.GRID)
            for jammers in (q_arr, q_local):
                full = solver._info_matrix(p_arr, jammers)
                random_rows = np.sort(rng.choice(p_arr.shape[0], 7, replace=False))
                with monkeypatch.context() as patch:
                    patch.setattr(avrs.bounds, "CHUNK_CELLS", chunk_cells)
                    for rows in (np.arange(0, p_arr.shape[0], 3), np.array([5]), random_rows):
                        sub = solver._info_matrix(p_arr[rows], jammers)
                        assert np.array_equal(sub, full[rows])

    def test_info_columns_and_cells_are_bit_equal(self, rng):
        # refinement and the lower bound's polish evaluate a few jammer
        # columns, or a single cell, and compare them with table entries
        for solver, p_arr, q_arr in self.kernel_cases(rng):
            full = solver._info_matrix(p_arr, q_arr)
            for cols in (np.arange(1, q_arr.shape[0], 4), np.array([q_arr.shape[0] - 1])):
                assert np.array_equal(solver._info_matrix(p_arr, q_arr[cols]), full[:, cols])
            for r, c in zip(rng.integers(p_arr.shape[0], size=5), rng.integers(q_arr.shape[0], size=5)):
                assert solver._info_matrix(p_arr[r : r + 1], q_arr[c : c + 1])[0, 0] == full[r, c]

    def test_info_table_does_not_depend_on_the_chunking(self, monkeypatch, rng):
        for solver, p_arr, q_arr in self.kernel_cases(rng):
            full = solver._info_matrix(p_arr, q_arr)
            # down to one jammer per chunk, and chunks that leave a lone jammer
            for jammers_per_chunk, jammers in ((1, 7), (2, 7), (7, q_arr.shape[0])):
                monkeypatch.setattr(avrs.bounds, "CHUNK_CELLS", jammers_per_chunk * p_arr.shape[0])
                table = solver._info_matrix(p_arr, q_arr[:jammers])
                assert np.array_equal(table, full[:, :jammers])
            monkeypatch.undo()

    def test_swapping_two_u_labels_keeps_every_bit(self, rng):
        # exact relabeling ties must be ties, so the search keeps the first
        for solver, p_arr, q_arr in self.kernel_cases(rng):
            if solver.u_size == 2:
                swapped = solver._info_matrix(p_arr[:, :, ::-1], q_arr)
                assert np.array_equal(swapped, solver._info_matrix(p_arr, q_arr))

    def test_screen_tracks_the_exact_table(self, rng):
        # the kernel uses the Markov chain U - Y - Z; the oracle does not
        for solver, p_arr, q_arr in self.kernel_cases(rng):
            expected = info_matrix_oracle(solver.spec, p_arr, q_arr)
            assert np.abs(solver._info_matrix(p_arr, q_arr) - expected).max() <= 1e-14

    def test_min_e_matches_joint_table_oracle(self, rng):
        specs = [classical_spec(0.3), xor_spec(), identity_z_spec(), wz_spec()]
        for spec in specs + [structured_instance(rng, nx=3) for _ in range(2)]:
            solver = RateBoundSolver(spec, 2, self.GRID)
            p_arr, q_arr = solver._p_candidates, solver._q_candidates
            expected = min_e_over_zeta_oracle(spec, p_arr, q_arr)
            assert np.abs(solver.min_e_matrix - expected).max() <= 1e-12

    def test_oversized_grid_refused(self, monkeypatch):
        monkeypatch.setattr(avrs.bounds, "MAX_CANDIDATES", 100)
        solver = RateBoundSolver(wz_spec(), 2, self.GRID)
        with pytest.raises(EnumerationTooLargeError, match="121 candidates"):
            solver.info_matrix

    def test_oversized_jammer_lattice_named_before_allocation(self, rng):
        # |X| = |J| = 3 at the default step: 231 kernel rows per source
        # symbol, 231^3 kernels, which would take 887 MB
        kernel = rng.dirichlet(np.ones(4), size=(3, 3)).reshape(3, 3, 2, 2)
        spec = make_spec(rng.dirichlet(np.ones(3)), kernel, rng.uniform(0.5, 1.5, size=(3, 3)))
        solver = RateBoundSolver(spec, 2)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationTooLargeError, match="jammer lattice would hold 12326391 ") as err:
                solver.info_matrix
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value).endswith("; use a coarser --coarse-step")
        assert peak < 2**22


class TestDistortionFloors:
    def test_decoder_sees_source(self):
        assert minimax_distortion_game(identity_z_spec(), True).value <= 2e-3
        assert minimax_distortion_game(identity_z_spec(), False).value <= 2e-3

    def test_clean_observation_no_jammer(self):
        assert minimax_distortion_game(classical_spec(), True).value <= 2e-3

    def test_xor_jamming_erases_y(self):
        # adversary flipping with probability 1/2 makes Y useless
        spec = xor_spec()
        val = minimax_distortion_game(spec, True).value
        assert val == pytest.approx(0.5, abs=5e-3)

    def test_xor_d0_against_vertex_grid_oracle(self):
        # oracle: fine grid over estimator columns, exact max over the four
        # deterministic jammers (expected distortion is linear in the kernel)
        spec = xor_spec()
        w_y = spec.w.sum(axis=3)  # (x, j, y)
        grid = np.linspace(0.0, 1.0, 501)
        est = np.stack([grid, 1 - grid], axis=1)  # estimator for one context
        best = np.inf
        dets = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for a in est:  # p(xhat | y=0)
            for b in est:  # p(xhat | y=1)
                worst = 0.0
                for jm in dets:
                    e = 0.0
                    for x in range(2):
                        for y in range(2):
                            p_y = spec.p_x[x] * w_y[x, jm[x], y]
                            col = a if y == 0 else b
                            e += p_y * (col[0] * spec.d[x, 0] + col[1] * spec.d[x, 1])
                    worst = max(worst, e)
                best = min(best, worst)
        val = minimax_distortion_game(spec, True).value
        assert val == pytest.approx(best, abs=5e-3)

    def test_d1_blind_guessing(self):
        assert minimax_distortion_game(identity_z_spec(), False).value <= 2e-3
        blind = minimax_distortion_game(classical_spec(), False).value
        assert blind == pytest.approx(0.5, abs=5e-3)
        blind = minimax_distortion_game(classical_spec(0.25), False).value
        assert blind == pytest.approx(0.25, abs=5e-3)


class TestRateUpper:
    def test_zero_above_d1(self):
        report = compute_bound_report(classical_spec(), [0.51, 5.0])
        for point in report.points:
            assert (point.r_upper, point.uncertainty_upper) == (0.0, 0.0)

    def test_classical_rate_distortion(self):
        solver = RateBoundSolver(classical_spec(), 2)  # default grid
        for target in (0.1, 0.25):
            value = solver.r_upper_point(target).value
            assert value == pytest.approx(1 - h2(target), abs=0.05)

    def test_at_d1_in_range(self):
        spec = classical_spec()
        level = minimax_distortion_game(spec, False).value
        value = RateBoundSolver(spec, 2, FAST_GRID).r_upper_point(level).value
        assert 0.0 <= value <= math.log2(2)

    def test_infeasible_below_floor(self):
        spec = xor_spec()  # informed floor is 0.5
        with pytest.raises(InfeasibleDistortionError):
            RateBoundSolver(spec, 2, FAST_GRID).r_upper_point(0.1)

    def test_non_increasing_in_distortion(self):
        spec = wz_spec()
        solver = RateBoundSolver(spec, 2, FAST_GRID)
        lo = minimax_distortion_game(spec, True).value
        hi = minimax_distortion_game(spec, False).value
        levels = [lo + f * (hi - lo) for f in (0.4, 0.6, 0.8)]
        points = [solver.r_upper_point(lv) for lv in levels]
        for a, b in zip(points, points[1:]):
            assert b.value <= a.value + a.uncertainty + b.uncertainty

    @pytest.mark.parametrize("u_size", [2, 3])
    def test_binary_wyner_ziv_anchor(self, u_size):
        # without a jammer the upper bound is the Wyner-Ziv rate over
        # auxiliaries of size u_size, so it cannot fall below the closed form
        # and, once refined, lies within its uncertainty of it
        report = compute_bound_report(binary_wz_spec(0.25), [0.05, 0.1, 0.15, 0.2], GridConfig(), u_size, 2)
        for point in report.points:
            exact = binary_wyner_ziv_rate(point.d, 0.25)
            assert point.r_upper >= exact - 1e-9, (point.d, point.r_upper, exact)
            assert abs(point.r_upper - exact) <= point.uncertainty_upper, (point.d, point.r_upper, exact)


class TestRateLower:
    def test_zero_above_d1(self):
        (point,) = compute_bound_report(classical_spec(), [0.51]).points
        assert (point.r_lower, point.uncertainty_lower) == (0.0, 0.0)

    def test_single_jammer_collapses_to_upper(self):
        solver = RateBoundSolver(classical_spec(), 2, FAST_GRID)
        for target in (0.1, 0.25):
            up = solver.r_upper_point(target)
            low = solver.r_lower_point(target)
            assert abs(up.value - low.value) <= up.uncertainty + low.uncertainty

    def test_weak_duality_random_instances(self, rng):
        for _ in range(8):
            spec = structured_instance(rng)
            lo = minimax_distortion_game(spec, True).value
            hi = minimax_distortion_game(spec, False).value
            if hi - lo < 0.05:
                continue
            mid = lo + 0.6 * (hi - lo)
            solver_u = RateBoundSolver(spec, 2, FAST_GRID)
            solver_l = RateBoundSolver(spec, 2, FAST_GRID)
            up = solver_u.r_upper_point(mid)
            low = solver_l.r_lower_point(mid)
            assert low.value <= up.value + up.uncertainty + low.uncertainty


class TestScreenedPoints:
    """Both bounds pick what the full exact tables pick, to the bit."""

    @pytest.mark.parametrize("refine", [True, False])
    def test_points_equal_the_full_table_oracle(self, rng, refine):
        grid = GridConfig(coarse_step=0.1, refine_step=0.05, refine=refine)
        # blind_y_spec is the tie-heavy case: I(U;Y|Z) is float noise around 0
        specs = [blind_y_spec(), structured_instance(rng, nx=3)]
        cases = [(spec, 2) for spec in specs + [two_view_instance(rng) for _ in range(2)]]
        for spec, u_size in cases + [(structured_instance(rng), 3)]:
            lo = minimax_distortion_game(spec, True).value
            hi = minimax_distortion_game(spec, False).value
            solver = RateBoundSolver(spec, u_size, grid)
            for level in [lo + f * (hi - lo) for f in (0.0, 0.3, 0.6, 1.0)] + [hi + 0.05]:
                for method, oracle in (
                    (solver.r_upper_point, r_upper_point_oracle),
                    (solver.r_lower_point, r_lower_point_oracle),
                ):
                    try:
                        expected = oracle(solver, level)
                    except InfeasibleDistortionError:
                        with pytest.raises(InfeasibleDistortionError):
                            method(level)
                        continue
                    got = method(level)
                    value, uncertainty, policy, zeta, jammer = expected
                    assert (got.value, got.uncertainty) == (value, uncertainty)
                    assert np.array_equal(got.p_u_given_y, policy)
                    assert np.array_equal(got.zeta, zeta)
                    assert np.array_equal(got.q_extreme, jammer)


class TestLazyTables:
    """The coarse table filled by U-swap orbit and the rows the upper bound's
    refinement evaluates read the bits of the full tables."""

    # 1/step even (a self-mirrored middle policy) and odd
    @pytest.mark.parametrize("coarse_step", [0.1, 0.2])
    @pytest.mark.parametrize("chunk_cells", [1 << 18, 64])
    def test_orbit_filled_table_equals_the_direct_one(self, monkeypatch, rng, coarse_step, chunk_cells):
        grid = GridConfig(coarse_step=coarse_step, refine_step=coarse_step / 2)
        build = RateBoundSolver._info_matrix
        for spec in table_instances(rng):
            solver = RateBoundSolver(spec, 2, grid)
            p_arr, q_arr = solver._p_candidates, solver._q_candidates
            assert np.array_equal(p_arr[solver._u_swap], p_arr[:, :, ::-1])
            window = avrs.bounds._refine_window(q_arr[rng.integers(q_arr.shape[0])], grid)
            direct = [build(solver, p_arr, q) for q in (q_arr, window)]
            rows = []

            def counting(solver, p_arr, q_arr):
                rows.append(p_arr.shape[0])
                return build(solver, p_arr, q_arr)

            with monkeypatch.context() as patch:
                patch.setattr(avrs.bounds, "CHUNK_CELLS", chunk_cells)
                patch.setattr(RateBoundSolver, "_info_matrix", counting)
                assert np.array_equal(solver.info_matrix, direct[0])
                assert np.array_equal(solver._policy_table(window), direct[1])
            # one row per orbit: a pair of swapped policies, or the middle one
            assert sum(rows) == 2 * ((p_arr.shape[0] + 1) // 2)

    def test_lazy_row_maxima_pick_the_full_argmin(self, rng):
        # a window around the (0.5, 0.5) policy holds each policy with its
        # U-swap, whose rows tie to the bit: the first index must win
        grid = GridConfig(coarse_step=0.1, refine_step=0.05)
        ties = 0
        for spec in table_instances(rng):
            solver = RateBoundSolver(spec, 2, grid)
            q_arr = solver._q_candidates
            window = avrs.bounds._refine_window(np.full((spec.w.shape[2], 2), 0.5), grid)
            full = solver._info_matrix(window, q_arr)
            maxima = full.max(axis=1)
            centre = int(np.flatnonzero((window == 0.5).all(axis=(1, 2)))[0])
            n = window.shape[0]
            subsets = (np.arange(n), np.sort(rng.choice(n, n // 2, replace=False)))
            for rows in subsets:
                ties += int(np.count_nonzero(maxima[rows] == maxima[rows].min()) > 1)
                expected = int(np.argmin(maxima[rows]))
                # the coarse row of the centre, a hint that seeds nothing
                # useful, and a random one
                for hint in (full[centre], np.zeros(q_arr.shape[0]), rng.random(q_arr.shape[0])):
                    k, row = solver._least_row_max(window[rows], hint)
                    assert k == expected
                    assert np.array_equal(row, full[rows[k]])
        assert ties > 0

    def test_refinement_reads_few_rows_of_its_window(self, monkeypatch, rng):
        # the benchmark-shaped ternary instance at the CLI's refine step
        spec = two_view_instance(rng)
        solver = RateBoundSolver(spec, 2, FAST_GRID)
        lo = minimax_distortion_game(spec, True).value
        hi = minimax_distortion_game(spec, False).value
        info, max_e = solver.info_matrix, solver.max_e_matrix
        nq = solver._q_candidates.shape[0]
        build = RateBoundSolver._info_matrix
        tol = avrs.bounds.DISTORTION_TOL
        cells = []

        def counting(solver, p_arr, q_arr):
            cells.append(p_arr.shape[0] * q_arr.shape[0])
            return build(solver, p_arr, q_arr)

        for level in [lo + f * (hi - lo) for f in (0.2, 0.5, 0.8, 1.0)]:
            # the feasible window policies whose full rows an argmin would read
            p0 = int(np.argmin(np.where((max_e <= level + tol).any(axis=1), info.max(axis=1), np.inf)))
            window = avrs.bounds._refine_window(solver._p_candidates[p0], FAST_GRID)
            feasible = int((solver._max_e_over_jammers(window) <= level + tol).any(axis=1).sum())
            cells.clear()
            with monkeypatch.context() as patch:
                patch.setattr(RateBoundSolver, "_info_matrix", counting)
                got = solver.r_upper_point(level)
            assert feasible > 20
            assert sum(cells) < 0.1 * feasible * nq
            value, uncertainty, policy, zeta, jammer = r_upper_point_oracle(solver, level)
            assert (got.value, got.uncertainty) == (value, uncertainty)
            assert np.array_equal(got.p_u_given_y, policy)
            assert np.array_equal(got.zeta, zeta)
            assert np.array_equal(got.q_extreme, jammer)


class TestVertexFeasibilityReduction:
    def test_deterministic_jammers_dominate_mixtures(self, rng):
        # E[d] is linear in the jamming kernel: no sampled mixture may beat
        # the deterministic maximum
        for _ in range(20):
            spec = structured_instance(rng, nx=int(rng.integers(2, 4)))
            nu = 2
            p_cols = rng.dirichlet(np.ones(nu), size=spec.w.shape[2])
            zeta = rng.integers(0, spec.d.shape[1], (nu, spec.w.shape[3]))

            # E = sum_{x,u,z} c[x,u,z] d[x, zeta[u,z]]
            def expected2(qmat):
                c = np.einsum(
                    "x,xj,xjyz,yu->xuz",
                    spec.p_x,
                    qmat,
                    spec.w,
                    p_cols,
                    optimize=True,
                )
                total = 0.0
                for u in range(nu):
                    for z in range(spec.w.shape[3]):
                        total += float(c[:, u, z] @ spec.d[:, zeta[u, z]])
                return total

            nx, nj = spec.w.shape[:2]
            det_best = -np.inf
            for flat in range(nj**nx):
                mapping = [(flat // nj**i) % nj for i in range(nx)]
                qmat = np.zeros((nx, nj))
                qmat[np.arange(nx), mapping] = 1.0
                det_best = max(det_best, expected2(qmat))
            sampled_best = max(
                expected2(rng.dirichlet(np.ones(nj), size=nx)) for _ in range(1000)
            )
            assert sampled_best <= det_best + 1e-9


class TestPerTypeRates:
    def test_deterministic_policy_uniform_type(self):
        spec = classical_spec()
        policy = identity_policy(spec)
        t_y = TypeTable(np.array([4, 4]), 8)
        rates = per_type_rates(t_y, policy, spec, eps=0.2, f_eps=0.2)
        assert rates.r_u == pytest.approx(1.0 + 0.05, abs=1e-9)

    def test_blind_side_information_clamps(self):
        spec = classical_spec()  # Z constant: I(U;Z) = 0 for every jammer
        policy = identity_policy(spec)
        t_y = TypeTable(np.array([4, 4]), 8)
        rates = per_type_rates(t_y, policy, spec, eps=0.2, f_eps=0.2)
        assert rates.r_tilde == 0.0
        assert rates.r_bin == pytest.approx(rates.r_u)

    def test_empty_consistency_set_flagged(self):
        # Y is constant 0, so no kernel can reach a type concentrated on 1
        k = np.zeros((2, 1, 2, 1))
        k[:, :, 0, 0] = 1.0
        spec = make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])
        policy = identity_policy(spec)
        t_y = TypeTable(np.array([0, 8]), 8)
        rates = per_type_rates(t_y, policy, spec, eps=0.2, f_eps=0.05)
        assert rates.no_feasible_jammer
        assert rates.r_tilde == math.inf
        assert rates.r_bin == 0.0

    def test_matches_direct_reimplementation(self):
        # independent evaluation of both formulas on the same search lattice
        spec = wz_spec()
        policy = identity_policy(spec)
        n, eps, f_eps = 32, 0.2, 0.2
        t_y = TypeTable(np.array([20, 12]), n)
        coarse_only = GridConfig(coarse_step=0.05, refine_step=0.05, refine=False)
        rates = per_type_rates(t_y, policy, spec, eps, f_eps, coarse_only)

        p_uy = policy.p_u_given_y
        t_prob = t_y.probabilities

        def mi(table):
            table = np.asarray(table)
            pa, pb = table.sum(axis=1), table.sum(axis=0)
            total = 0.0
            for a in range(table.shape[0]):
                for b in range(table.shape[1]):
                    if table[a, b] > 0:
                        total += table[a, b] * math.log2(table[a, b] / (pa[a] * pb[b]))
            return total

        r_u_direct = mi(t_prob[:, None] * p_uy) + eps / 4
        best = math.inf
        steps = np.linspace(0, 1, 21)
        for q0 in steps:
            for q1 in steps:
                qmat = np.array([[1 - q0, q0], [1 - q1, q1]])
                marg = np.einsum("x,xj,xjy->y", spec.p_x, qmat, spec.w.sum(axis=3))
                if np.abs(marg - t_prob).max() > f_eps + 1e-12:
                    continue
                p_uz = np.einsum(
                    "x,xj,xjyz,yu->uz", spec.p_x, qmat, spec.w, p_uy
                )
                best = min(best, mi(p_uz))
        r_tilde_direct = max(0.0, best - eps / 4)
        assert rates.r_u == pytest.approx(r_u_direct, abs=1e-9)
        assert rates.r_tilde == pytest.approx(r_tilde_direct, abs=1e-9)

    def test_types_of_a_run_share_the_lattice_information(self):
        spec, policy = wz_spec(), identity_policy(wz_spec())
        build = avrs.bounds._coarse_uz_information
        build.cache_clear()
        types = [TypeTable(np.array([c, 8 - c]), 8) for c in range(9)]
        rates = [per_type_rates(t, policy, spec, 0.2, 0.2) for t in types]
        # an equal spec built again is the same key
        rates_again = [per_type_rates(t, policy, wz_spec(), 0.2, 0.2) for t in types]
        assert rates_again == rates
        info = build.cache_info()
        assert (info.misses, info.hits) == (1, 2 * len(types) - 1)
        per_type_rates(types[0], identity_policy(spec, 3), spec, 0.2, 0.2)
        assert build.cache_info().misses == 2
        key = tuple((a.tobytes(), a.shape) for a in (spec.p_x, spec.w, spec.d, policy.p_u_given_y))
        for table in build(key, GridConfig().coarse_step):
            assert not table.flags.writeable


class TestBoundReport:
    def test_report_orders_and_infeasible_points(self):
        spec = wz_spec()
        lo = minimax_distortion_game(spec, True).value
        hi = minimax_distortion_game(spec, False).value
        levels = [lo * 0.5, lo + 0.5 * (hi - lo), hi + 0.1]
        report = compute_bound_report(
            spec, levels, FAST_GRID, u_size_upper=2, u_size_lower=2
        )
        assert report.d0 <= report.d1 + report.d0_gap + report.d1_gap
        assert not report.points[0].feasible
        assert report.points[1].feasible
        assert report.points[2].r_upper == 0.0
        mid = report.points[1]
        assert mid.r_lower <= mid.r_upper + mid.uncertainty_upper + mid.uncertainty_lower
        assert mid.strategy_upper is not None and "p_u_given_y" in mid.strategy_upper

    def test_equal_u_sizes_build_one_info_matrix(self, monkeypatch):
        spec = wz_spec()
        lo = minimax_distortion_game(spec, True).value
        hi = minimax_distortion_game(spec, False).value
        levels = [lo + f * (hi - lo) for f in (0.4, 0.8)]
        separate_u = RateBoundSolver(spec, 2, FAST_GRID)
        separate_l = RateBoundSolver(spec, 2, FAST_GRID)
        expected = [(separate_u.r_upper_point(v), separate_l.r_lower_point(v)) for v in levels]

        # every coarse table the property hands out, held so that two builds
        # cannot share an id
        tables = []
        prop = RateBoundSolver.info_matrix

        def counting(solver):
            tables.append(prop.fget(solver))
            return tables[-1]

        monkeypatch.setattr(RateBoundSolver, "info_matrix", property(counting))
        report = compute_bound_report(spec, levels, FAST_GRID, u_size_upper=2, u_size_lower=2)
        assert tables and len({id(t) for t in tables}) == 1
        for point, (up, low) in zip(report.points, expected):
            assert (point.r_upper, point.uncertainty_upper) == (up.value, up.uncertainty)
            assert (point.r_lower, point.uncertainty_lower) == (low.value, low.uncertainty)
            assert point.strategy_upper["p_u_given_y"] == up.p_u_given_y.tolist()
            assert point.strategy_upper["jammer_q"] == up.q_extreme.tolist()
            assert point.strategy_lower["p_u_given_y"] == low.p_u_given_y.tolist()
            assert point.strategy_lower["jammer_q"] == low.q_extreme.tolist()

    @pytest.mark.parametrize("level", [math.nan, math.inf])
    def test_non_finite_level_refused(self, level):
        with pytest.raises(UsageError, match="finite"):
            compute_bound_report(wz_spec(), [0.3, level], FAST_GRID, 2, 2)

    def test_one_report_solves_each_floor_once(self, monkeypatch):
        # the golden sweep 0.21, 0.23, 0.3 on the README spec; 0.3 lies above d1
        spec = load_problem_spec(Path(__file__).parent / "data" / "spec_binary.json")
        calls = []

        def counting(*game):
            calls.append(game)
            return solve_bilinear_game(*game)

        monkeypatch.setattr(avrs.bounds, "solve_bilinear_game", counting)
        report = compute_bound_report(
            spec, [0.21, 0.23, 0.3], FAST_GRID, u_size_upper=2, u_size_lower=2
        )
        assert len(calls) == 2
        above = report.points[2]
        assert above.d > report.d1
        assert (above.r_upper, above.r_lower) == (0.0, 0.0)
        assert above.strategy_upper["zeta"] is None
