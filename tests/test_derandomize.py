import hashlib
import math

import numpy as np

from avrs.adversary import deterministic_jammer
from avrs.coding import Codebook, CodebookFamily, CodingParams, SessionConfig
from avrs.derandomize import certify_ensemble, sample_ensemble
from avrs.mtypes import nearest_type

from conftest import identity_z_spec, noisy_policy, wz_spec


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
        data = family.type_data(t_y)
        rows = np.stack([Codebook(data, s).matrix()[0] for s in e.member_seeds])
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
        config = SessionConfig(spec, policy, CodingParams(eps=0.3, size_cap=32))
        e = sample_ensemble(config, 8, k=4, master_seed=0)
        jam = deterministic_jammer((0, 1), spec.w.shape[1])
        report = certify_ensemble(e, [jam], x_count=1, trials_per_member=2, mu=0.02, seed=1)
        assert report.max_excess == 0.0
        assert report.passed

    def test_singleton_max_equals_cell(self):
        config = small_config()
        e = sample_ensemble(config, 8, k=8, master_seed=2)
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        report = certify_ensemble(e, [jam], x_count=1, trials_per_member=2, mu=0.5, seed=4)
        assert len(report.cells) == 1
        assert report.max_excess == report.cells[0].excess

    def test_big_ensemble_no_worse_than_single(self):
        config = small_config()
        jam = deterministic_jammer((1, 1), config.spec.w.shape[1])
        n = 8
        e1 = sample_ensemble(config, n, k=1, master_seed=7)
        ek = sample_ensemble(config, n, k=n * n, master_seed=7)
        r1 = certify_ensemble(e1, [jam], x_count=1, trials_per_member=64, mu=9.0, seed=5)
        rk = certify_ensemble(ek, [jam], x_count=1, trials_per_member=1, mu=9.0, seed=5)
        slack = 3 * math.hypot(r1.cells[0].std_error, rk.cells[0].std_error)
        assert rk.max_excess <= r1.max_excess + slack


class TestStochasticCode:
    def test_rate_overhead_closed_form(self):
        config = small_config()
        e = sample_ensemble(config, n=100, k=100 * 100, master_seed=0)
        expected = 2 * math.log2(100) / 100
        assert abs(e.rate_overhead - expected) < 1e-15
        assert e.index_bits == 14  # ceil(log2(10^4)) physical header bits

    def test_k_one_costs_nothing(self):
        config = small_config()
        e = sample_ensemble(config, n=16, k=1, master_seed=0)
        assert e.rate_overhead == 0.0
        assert e.index_bits == 0


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
