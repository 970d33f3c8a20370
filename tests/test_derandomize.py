import hashlib
import math

import numpy as np

from avrs.adversary import deterministic_jammer
from avrs.coding import Codebook, CodebookFamily, SessionConfig
from avrs.derandomize import certify_ensemble, index_cost
from avrs.mtypes import nearest_type
from avrs.rng import derive_seed

from conftest import identity_z_spec, noisy_policy, wz_spec


def small_config(cap=512):
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    return SessionConfig(spec, noisy_policy(spec, stay=0.8), eps=0.2, size_cap=cap)


class TestEnsemble:
    def test_k_default_and_reduction(self):
        config = small_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        report = certify_ensemble(config, 8, [jam], 1, 1, 0.5, 3)
        assert report.k == 64
        assert all(c.sessions == 64 for c in report.cells)
        single = certify_ensemble(config, 8, [jam], 1, 2, 0.5, 3, k=1)
        assert single.k == 1

    def test_reproducible_members(self):
        config = small_config()
        jam = deterministic_jammer((1, 0), config.spec.w.shape[1])
        a = certify_ensemble(config, 8, [jam], 2, 1, 0.5, 5, k=16)
        b = certify_ensemble(config, 8, [jam], 2, 1, 0.5, 5, k=16)
        assert a == b
        c = certify_ensemble(config, 8, [jam], 2, 1, 0.5, 6, k=16)
        assert a.cells != c.cells

    def test_member_codeword_statistics_match_parent(self):
        # first codeword across many members is i.i.d. from the sampling pmf
        config = small_config()
        family = CodebookFamily(config)
        n = 8
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        master = derive_seed(9, "ensemble")
        data = family.type_data(t_y)
        rows = np.stack([Codebook(data, derive_seed(master, "member", i)).matrix()[0] for i in range(1000)])
        p1 = float((t_y.probabilities @ config.policy.p_u_given_y)[1])
        freq = float(np.mean(rows))
        sigma = math.sqrt(p1 * (1 - p1) / rows.size)
        assert abs(freq - p1) <= 3 * sigma


class TestCertification:
    def test_trivial_channel_zero_excess(self):
        # side information equals the source and zeta copies it: every
        # session of every code has zero distortion
        spec = identity_z_spec()
        from avrs.model import AuxiliaryPolicy

        policy = AuxiliaryPolicy(np.array([[1.0]]), np.array([[0, 1]]))
        config = SessionConfig(spec, policy, eps=0.3, size_cap=32)
        jam = deterministic_jammer((0, 1), spec.w.shape[1])
        report = certify_ensemble(config, 8, [jam], x_count=1, trials_per_member=2, mu=0.02, seed=1, k=4)
        assert report.max_excess == 0.0
        assert report.passed

    def test_singleton_max_equals_cell(self):
        config = small_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        report = certify_ensemble(config, 8, [jam], x_count=1, trials_per_member=2, mu=0.5, seed=4, k=8)
        assert len(report.cells) == 1
        assert report.max_excess == report.cells[0].excess

    def test_big_ensemble_no_worse_than_single(self):
        config = small_config()
        jam = deterministic_jammer((1, 1), config.spec.w.shape[1])
        n = 8
        r1 = certify_ensemble(config, n, [jam], x_count=1, trials_per_member=64, mu=9.0, seed=5, k=1)
        rk = certify_ensemble(config, n, [jam], x_count=1, trials_per_member=1, mu=9.0, seed=5)
        slack = 3 * math.hypot(r1.cells[0].std_error, rk.cells[0].std_error)
        assert rk.max_excess <= r1.max_excess + slack


class TestStochasticCode:
    def test_rate_overhead_closed_form(self):
        rate_overhead, index_bits = index_cost(100 * 100, 100)
        assert abs(rate_overhead - 2 * math.log2(100) / 100) < 1e-15
        assert index_bits == 14  # ceil(log2(10^4)) physical header bits

    def test_k_one_costs_nothing(self):
        assert index_cost(1, 16) == (0.0, 0)


class TestPinnedCodebooks:
    def test_each_type_and_code_is_drawn_once(self, monkeypatch, tmp_path):
        # the README certify run: K = 256 members on 4 source blocks
        import avrs.coding
        import avrs.derandomize
        from avrs.cli import main

        draws = []
        pairs = set()
        draw, engine = avrs.coding._draw_codewords, avrs.derandomize.simulate_sessions

        def counting_draw(gen, data):
            # the generator's key identifies the (code seed, type) stream
            key = gen.bit_generator.state["state"]["key"]
            draws.append(hashlib.sha256(key.tobytes()).hexdigest())
            return draw(gen, data)

        def recording_engine(xs, jammer, config, seeds, code_seeds):
            batch = engine(xs, jammer, config, seeds, code_seeds)
            for y, code in zip(batch.y, batch.code_seed):
                pairs.add((tuple(np.bincount(y, minlength=2)), code))
            return batch

        monkeypatch.setattr(avrs.coding, "_draw_codewords", counting_draw)
        monkeypatch.setattr(avrs.derandomize, "simulate_sessions", recording_engine)
        args = [
            "derandomize", "--spec", "tests/data/spec_binary.json",
            "--policy", "tests/data/policy_binary.json", "--n", "16", "--x-samples", "4",
            "--trials", "1", "--seed", "1", "--out-dir", str(tmp_path),
        ]
        assert main(args) == 0
        assert len(set(draws)) == len(draws)
        assert len(draws) == len(pairs)
