import json

import numpy as np
import pytest

from avrs.adversary import (
    Jammer,
    deterministic_jammer,
    deterministic_jammer_family,
    fixed_vector_jammer,
    jammer_from_dict,
    load_jammers,
    sample_jamming,
    worst_case_search,
)
from avrs.coding import CodingParams, SessionConfig, simulate_sessions
from avrs.rng import derive_seed, philox_stream

from conftest import identity_policy, make_spec, noisy_policy, wz_spec, xor_spec


def _jam_block(jam, x, gen):
    """The jamming of one source block through the row-batched sampler."""
    return sample_jamming(jam, x[None], lambda t: gen)[0]


class TestSampling:
    def test_single_letter_jammer(self):
        k = np.zeros((2, 1, 2, 1))
        k[0, 0, 0, 0] = k[1, 0, 1, 0] = 1.0
        spec = make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])
        jam = deterministic_jammer_family(spec)[0]
        x = np.array([0, 1, 1, 0])
        out = _jam_block(jam, x, philox_stream(0))
        assert np.array_equal(out, [0, 0, 0, 0])

    def test_identity_map(self):
        spec = xor_spec()
        jam = deterministic_jammer((0, 1), spec.w.shape[1])
        x = np.array([0, 1, 1, 0])
        out = _jam_block(jam, x, philox_stream(0))
        assert np.array_equal(out, x)

    def test_memoryless_frequency(self):
        spec = xor_spec()
        jam = Jammer([[0.7, 0.3], [0.7, 0.3]])
        x = np.zeros(10_000, dtype=int)
        out = _jam_block(jam, x, philox_stream(123))
        freq = float(np.mean(out))
        sigma = np.sqrt(0.3 * 0.7 / 10_000)
        assert abs(freq - 0.3) <= 3 * sigma

    def test_deterministic_rows_consume_no_randomness(self):
        # x = 0 meets a random row, x = 1 a point mass: one uniform is drawn
        # per x = 0 position, in position order, and none for x = 1
        jam = Jammer([[0.5, 0.5], [0.0, 1.0]])
        x = np.array([1, 0, 1, 1, 0, 0, 1])
        gen, ref = philox_stream(7), philox_stream(7)
        out = _jam_block(jam, x, gen)
        u = ref.random(3)
        assert out.tolist() == [1, int(u[0] >= 0.5), 1, 1, int(u[1] >= 0.5), int(u[2] >= 0.5), 1]
        assert gen.random() == ref.random()
        # a kernel of point masses only leaves its stream untouched
        gen = philox_stream(7)
        assert _jam_block(jam, np.ones(5, dtype=int), gen).tolist() == [1] * 5
        assert gen.random() == philox_stream(7).random()

    def test_rows_draw_from_their_own_streams(self):
        spec = xor_spec()
        jam = Jammer([[0.5, 0.5], [1.0, 0.0]])
        xs = philox_stream(4).integers(0, 2, (5, 12))
        block = sample_jamming(jam, xs, lambda t: philox_stream(t, "jam"))
        for t, row in enumerate(xs):
            one = sample_jamming(jam, row[None], lambda _: philox_stream(t, "jam"))
            assert np.array_equal(block[t], one[0])

    def test_stack_of_one_kernel_draws_as_that_kernel(self):
        q = philox_stream(9).dirichlet([1.0, 1.0, 1.0], size=3)  # a random (X, J) kernel
        xs = philox_stream(10).integers(0, 3, (6, 20))
        shared = sample_jamming(Jammer(q), xs, lambda t: philox_stream(t, "jam"))
        stacked = sample_jamming(Jammer(np.stack([q] * 20)), xs, lambda t: philox_stream(t, "jam"))
        assert np.array_equal(shared, stacked)

    def test_fixed_vector_jammer_ignores_the_source(self):
        spec = xor_spec()
        jam = fixed_vector_jammer(np.array([1, 0, 1]), *spec.w.shape[:2], "fixed")
        assert jam.q.shape == (3, 2, 2)
        for x in ([0, 0, 0], [1, 0, 1], [1, 1, 0]):
            out = _jam_block(jam, np.array(x), philox_stream(0))
            assert np.array_equal(out, [1, 0, 1])


class TestFamily:
    def test_sizes(self):
        k = np.zeros((2, 1, 2, 1))
        k[0, 0, 0, 0] = k[1, 0, 1, 0] = 1.0
        spec1 = make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])
        assert len(deterministic_jammer_family(spec1)) == 1
        spec2 = xor_spec()
        fam = deterministic_jammer_family(spec2)
        assert len(fam) == 4
        assert [j.descriptor for j in fam] == ["det[0, 0]", "det[0, 1]", "det[1, 0]", "det[1, 1]"]
        assert [j.q.argmax(axis=1).tolist() for j in fam] == [[0, 0], [0, 1], [1, 0], [1, 1]]


class TestJammerIO:
    def test_roundtrip_memoryless(self, tmp_path):
        spec = xor_spec()
        jam = Jammer([[0.7, 0.3], [0.2, 0.8]])
        path = tmp_path / "jam.json"
        path.write_text(json.dumps({"kind": "memoryless", "q": jam.q.tolist()}))
        back = load_jammers(path, spec)
        assert len(back) == 1
        assert np.allclose(back[0].q, jam.q)

    def test_deterministic_dict(self):
        spec = xor_spec()
        jam = jammer_from_dict({"kind": "deterministic", "map": [1, 0]}, spec)
        assert jam.q.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def _search_config(spec, policy):
    return SessionConfig(spec, policy, CodingParams(eps=0.3, size_cap=128))


def _mean_distortion(x, jam, config, seeds):
    """Mean distortion of one session per seed on the source block x."""
    xs = np.broadcast_to(x, (len(seeds), len(x)))
    return float(simulate_sessions(xs, jam, config, seeds).distortion.mean())


class TestWorstCaseSearch:
    def test_single_j_reduces_to_monte_carlo(self):
        k = np.zeros((2, 1, 2, 1))
        k[0, 0, 0, 0] = k[1, 0, 1, 0] = 1.0
        spec = make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])
        config = _search_config(spec, identity_policy(spec))
        x = np.array([0, 1, 0, 1])
        res = worst_case_search(config, x, budget=3, seed=11, trials_per_estimate=16)
        direct = _mean_distortion(x, res.jammer, config, [derive_seed(11, "final", t) for t in range(16)])
        assert res.estimate == pytest.approx(direct, abs=1e-12)

    def test_matches_exhaustive_at_tiny_blocklength(self):
        spec = xor_spec()
        config = _search_config(spec, noisy_policy(spec))
        x = np.array([0, 1, 1, 0])
        res = worst_case_search(
            config, x, budget=200, seed=3, restarts=6, trials_per_estimate=24
        )

        def crn_estimate(vec):
            jam = fixed_vector_jammer(np.array(vec), *spec.w.shape[:2], "brute")
            return _mean_distortion(x, jam, config, [derive_seed(3, "crn", t) for t in range(24)])

        brute_best = max(
            crn_estimate([b0, b1, b2, b3])
            for b0 in range(2)
            for b1 in range(2)
            for b2 in range(2)
            for b3 in range(2)
        )
        # the greedy search sees the same common-random-number landscape
        assert res.estimate >= brute_best - 3 * max(res.std_error, 1e-3) - 0.05

    def test_budget_monotone_under_replay(self):
        spec = wz_spec()
        config = _search_config(spec, noisy_policy(spec))
        x = np.array([0, 1, 1, 0, 0, 1, 0, 1])
        small = worst_case_search(config, x, budget=8, seed=21, trials_per_estimate=12)
        large = worst_case_search(config, x, budget=16, seed=21, trials_per_estimate=12)
        slack = 3 * np.hypot(small.std_error, large.std_error)
        assert large.estimate >= small.estimate - slack

    def test_beats_family_mean(self):
        spec = xor_spec()
        config = _search_config(spec, noisy_policy(spec))
        x = np.array([0, 1, 0, 1, 1, 0])
        res = worst_case_search(config, x, budget=40, seed=5, trials_per_estimate=16)
        fam = deterministic_jammer_family(spec)
        means = [
            _mean_distortion(x, jam, config, [derive_seed(99, ij, t) for t in range(16)])
            for ij, jam in enumerate(fam)
        ]
        assert res.estimate >= float(np.mean(means)) - 3 * max(res.std_error, 1e-3)

    def test_rates_computed_once_per_observed_type(self, monkeypatch):
        import avrs.coding

        keys = []
        original = avrs.coding.per_type_rates

        def counting(t_y, *args, **kwargs):
            keys.append(t_y.key())
            return original(t_y, *args, **kwargs)

        monkeypatch.setattr(avrs.coding, "per_type_rates", counting)
        spec = wz_spec()
        config = _search_config(spec, noisy_policy(spec))
        x = np.array([0, 1, 1, 0, 0, 1, 0, 1])
        worst_case_search(config, x, budget=4, seed=2, trials_per_estimate=6)
        assert len(set(keys)) > 1
        assert len(keys) == len(set(keys))

    def test_sampled_vectors_alphabet_valid(self, rng):
        spec = xor_spec()
        jam = Jammer([[0.5, 0.5], [0.5, 0.5]])
        x = rng.integers(0, 2, 64)
        out = _jam_block(jam, x, philox_stream(1))
        assert out.min() >= 0
        assert out.max() < spec.w.shape[1]
