import math

import numpy as np
import pytest

from avrs.adversary import DeterministicJammer, MemorylessJammer
from avrs.coding import CodebookFamily, CodingParams, SessionConfig, simulate_session
from avrs.derandomize import (
    bernstein_bound,
    build_stochastic_code,
    certify_ensemble,
    run_stochastic_session,
    sample_ensemble,
    union_bound,
)
from avrs.errors import UsageError
from avrs.mtypes import SymbolVector, nearest_type
from avrs.probability import CondDistribution
from avrs.rng import derive_seed, philox_stream

from conftest import identity_policy, identity_z_spec, noisy_policy, wz_spec


def small_config(cap=512):
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    return SessionConfig(spec, noisy_policy(spec, stay=0.8), CodingParams(eps=0.2, size_cap=cap))


class TestEnsemble:
    def test_k_default_and_reduction(self):
        config = small_config()
        e = sample_ensemble(config, n=8, master_seed=3)
        assert e.size == 64
        single = sample_ensemble(config, n=8, k=1, master_seed=3)
        assert single.size == 1

    def test_reproducible_members(self):
        config = small_config()
        a = sample_ensemble(config, 8, 16, master_seed=5)
        b = sample_ensemble(config, 8, 16, master_seed=5)
        assert a.member_seeds == b.member_seeds
        c = sample_ensemble(config, 8, 16, master_seed=6)
        assert a.member_seeds != c.member_seeds

    def test_member_codeword_statistics_match_parent(self):
        # first codeword across many members is i.i.d. from the sampling pmf
        config = small_config()
        family = CodebookFamily(config)
        n = 8
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        e = sample_ensemble(config, n, k=1000, master_seed=9)
        rows = np.stack(
            [family.codebook(t_y, s).matrix()[0] for s in e.member_seeds]
        )
        p1 = float(family.type_data(t_y).p_u[1])
        freq = float(np.mean(rows))
        sigma = math.sqrt(p1 * (1 - p1) / rows.size)
        assert abs(freq - p1) <= 3 * sigma


class TestCertification:
    def test_trivial_channel_zero_excess(self):
        # side information equals the source and zeta copies it: every
        # session of every code has zero distortion
        spec = identity_z_spec()
        from avrs.model import AuxiliaryPolicy
        from avrs.probability import Alphabet

        policy = AuxiliaryPolicy(
            CondDistribution(spec.y_alphabet, Alphabet("U", 1), [[1.0]]),
            np.array([[0, 1]]),
            spec.z_alphabet,
            spec.xhat_alphabet,
        )
        config = SessionConfig(spec, policy, CodingParams(eps=0.3, size_cap=32))
        e = sample_ensemble(config, 8, k=4, master_seed=0)
        jam = DeterministicJammer((0, 1), spec.j_alphabet)
        report = certify_ensemble(e, [jam], x_count=1, trials_per_member=2, mu=0.02, seed=1)
        assert report.max_excess == 0.0
        assert report.passed

    def test_singleton_max_equals_cell(self):
        config = small_config()
        e = sample_ensemble(config, 8, k=8, master_seed=2)
        jam = DeterministicJammer((0, 0), config.spec.j_alphabet)
        report = certify_ensemble(e, [jam], x_count=1, trials_per_member=2, mu=0.5, seed=4)
        assert len(report.cells) == 1
        assert report.max_excess == report.cells[0].excess

    def test_big_ensemble_no_worse_than_single(self):
        config = small_config()
        jam = DeterministicJammer((1, 1), config.spec.j_alphabet)
        n = 8
        e1 = sample_ensemble(config, n, k=1, master_seed=7)
        ek = sample_ensemble(config, n, k=n * n, master_seed=7)
        r1 = certify_ensemble(e1, [jam], x_count=1, trials_per_member=64, mu=9.0, seed=5)
        rk = certify_ensemble(ek, [jam], x_count=1, trials_per_member=1, mu=9.0, seed=5)
        slack = 3 * math.hypot(r1.cells[0].std_error, rk.cells[0].std_error)
        assert rk.max_excess <= r1.max_excess + slack


class TestBounds:
    def test_bernstein_below_one_and_decreasing(self):
        prev = 1.1
        for n_samples in (1, 10, 100, 1000):
            val = bernstein_bound(mu=0.5, b=1.0, alpha=0.05, n_samples=n_samples)
            assert 0 < val <= 1.0
            assert val < prev
            prev = val

    def test_alpha_range_enforced(self):
        limit = 0.5 * math.exp(-2.0)
        bernstein_bound(0.1, 1.0, limit, 10)  # boundary admissible
        with pytest.raises(UsageError):
            bernstein_bound(0.1, 1.0, limit * 1.01, 10)
        with pytest.raises(UsageError):
            bernstein_bound(0.1, 1.0, 0.0, 10)
        with pytest.raises(UsageError):
            bernstein_bound(0.0, 1.0, 0.01, 10)

    def test_union_bound_vanishes_with_quadratic_ensemble(self):
        alpha = 0.5 * math.exp(-2.0)
        vals = [
            union_bound(n, n * n, mu=1.0, b=1.0, alpha=alpha, x_size=2, j_size=2)
            for n in (20, 30, 50, 80)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-100
        # far out the value underflows to an exact zero and stays there
        tail = [
            union_bound(n, n * n, mu=1.0, b=1.0, alpha=alpha, x_size=2, j_size=2)
            for n in (200, 400)
        ]
        assert all(v == 0.0 for v in tail)

    def test_union_bound_caps_at_one_for_linear_ensemble(self):
        alpha = 0.5 * math.exp(-2.0)
        vals = [
            union_bound(n, n, mu=1.0, b=1.0, alpha=alpha, x_size=2, j_size=2)
            for n in (50, 100, 200)
        ]
        assert all(v == 1.0 for v in vals)

    def test_union_bound_eventually_monotone_grid(self):
        alpha = 0.03
        for mu, b in ((0.5, 1.0), (1.0, 2.0)):
            if alpha > min(1.0, (b / 2) * math.exp(-2 * b)):
                continue
            vals = [
                union_bound(n, n * n, mu=mu, b=b, alpha=alpha, x_size=2, j_size=3)
                for n in (100, 200, 400, 800)
            ]
            assert all(a >= b_ for a, b_ in zip(vals, vals[1:]))


class TestStochasticCode:
    def test_rate_overhead_closed_form(self):
        config = small_config()
        e = sample_ensemble(config, n=100, k=100 * 100, master_seed=0)
        code = build_stochastic_code(e, parent_rate=1.0)
        expected = 2 * math.log2(100) / 100
        assert abs(code.rate_overhead - expected) < 1e-15
        assert code.rate == pytest.approx(1.0 + 0.13287712379549449, abs=1e-12)
        assert code.index_bits == 14  # ceil(log2(10^4)) physical header bits

    def test_k_one_costs_nothing(self):
        config = small_config()
        e = sample_ensemble(config, n=16, k=1, master_seed=0)
        code = build_stochastic_code(e, parent_rate=0.7)
        assert code.rate_overhead == 0.0
        assert code.index_bits == 0
        assert code.rate == 0.7

    def test_decoder_deterministic_given_index(self):
        config = small_config()
        e = sample_ensemble(config, n=12, k=9, master_seed=1)
        code = build_stochastic_code(e)
        jam = DeterministicJammer((0, 1), config.spec.j_alphabet)
        x = SymbolVector(config.spec.x_alphabet, philox_stream(3).integers(0, 2, 12))
        a = run_stochastic_session(code, x, jam, seed=77)
        b = run_stochastic_session(code, x, jam, seed=77)
        assert a.member_index == b.member_index
        assert a.distortion == b.distortion

    def test_member_index_uniform(self):
        config = small_config()
        k = 8
        e = sample_ensemble(config, n=8, k=k, master_seed=1)
        code = build_stochastic_code(e)
        jam = DeterministicJammer((0, 0), config.spec.j_alphabet)
        x = SymbolVector(config.spec.x_alphabet, [0, 1, 0, 1, 1, 0, 0, 1])
        trials = 8000
        counts = np.zeros(k)
        for t in range(trials):
            rep = run_stochastic_session(code, x, jam, seed=derive_seed(0, "unif", t))
            counts[rep.member_index] += 1
        expected = trials / k
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 18.475  # 1% critical value, df = 7

    def test_stochastic_matches_ensemble_average(self):
        config = small_config()
        n, k = 12, 16
        e = sample_ensemble(config, n, k=k, master_seed=4)
        code = build_stochastic_code(e)
        jam = MemorylessJammer(
            CondDistribution(
                config.spec.x_alphabet, config.spec.j_alphabet, [[0.7, 0.3], [0.7, 0.3]]
            )
        )
        x = SymbolVector(config.spec.x_alphabet, philox_stream(8).integers(0, 2, n))
        trials = 700
        sto = np.array(
            [
                run_stochastic_session(code, x, jam, seed=derive_seed(1, "s", t)).distortion
                for t in range(trials)
            ]
        )
        ens = np.array(
            [
                simulate_session(
                    x, jam, config, derive_seed(2, "e", t),
                    code_seed=e.member_seeds[t % k],
                ).distortion
                for t in range(trials)
            ]
        )
        se = math.hypot(sto.std() / math.sqrt(trials), ens.std() / math.sqrt(trials))
        assert abs(float(sto.mean()) - float(ens.mean())) <= 3 * se
