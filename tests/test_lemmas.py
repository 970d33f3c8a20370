import math

import numpy as np
import pytest

from avrs.adversary import deterministic_jammer
from avrs.coding import CodingParams, SessionConfig
from avrs.errors import UsageError
from avrs.lemmas import (
    run_conditional_typicality,
    run_covering,
    run_markov_conclusion,
    run_packing,
    trend_check,
)
from avrs.model import AuxiliaryPolicy
from avrs.mtypes import TYPE_TOL, nearest_type, type_template
from avrs.rng import philox_stream, sample_rows

from conftest import identity_z_spec, noisy_policy, wz_spec


def covering_config():
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    return SessionConfig(
        spec,
        noisy_policy(spec, stay=0.9),
        CodingParams(eps=0.2, delta2=0.15, gamma=0.25, f_eps=0.1, size_cap=2048),
    )


def packing_config():
    # within-bin rate pinned just above zero: bins stay at two codewords on
    # the whole ladder while the per-codeword hit probability decays
    spec = wz_spec(flip_y=0.01, jam_extra=0.02, flip_z=0.01)
    return SessionConfig(
        spec,
        noisy_policy(spec, stay=0.9),
        CodingParams(eps=1.7, delta2=0.2, gamma=0.1, f_eps=0.1, size_cap=4096),
    )


def markov_config():
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    return SessionConfig(
        spec,
        noisy_policy(spec, stay=0.9),
        CodingParams(eps=0.2, delta2=0.2, gamma=0.25, f_eps=0.1, size_cap=2048),
    )


class TestConditionalTypicality:
    def test_deterministic_channel_never_violates(self):
        w = np.array([[1.0, 0.0], [0.0, 1.0]])
        res = run_conditional_typicality(
            np.array([0.5, 0.5]), w, n=100, delta0=0.2, trials=200, seed=1
        )
        assert res.empirical == 0.0

    def test_bsc_within_bound_and_vacuous_flagged(self):
        w = np.array([[0.8, 0.2], [0.2, 0.8]])
        res = run_conditional_typicality(
            np.array([0.5, 0.5]), w, n=200, delta0=0.1, trials=2000, seed=2
        )
        assert res.bound == pytest.approx(4 * math.exp(-0.4), abs=1e-12)
        assert res.bound == pytest.approx(2.6812801841425576, abs=1e-12)
        assert res.vacuous  # the closed form exceeds one at this blocklength
        assert res.empirical <= res.bound + 3 * res.sigma

    def test_tight_radius_non_vacuous(self):
        w = np.array([[0.8, 0.2], [0.2, 0.8]])
        res = run_conditional_typicality(
            np.array([0.5, 0.5]), w, n=200, delta0=0.25, trials=2000, seed=3
        )
        assert not res.vacuous
        assert res.within_bound

    def test_no_typical_input_diagnostic(self):
        w = np.array([[0.8, 0.2], [0.2, 0.8]])
        with pytest.raises(UsageError, match="typical"):
            run_conditional_typicality(
                np.array([0.37, 0.63]), w, n=3, delta0=0.01, trials=10, seed=0
            )

    def test_equals_the_trial_by_trial_loop(self):
        # the reference draws each trial's outputs with its own sample_rows
        # call and counts the pairs one by one
        p_s = np.array([0.5, 0.5])
        w = np.array([[0.7, 0.3], [0.3, 0.7]])
        n, delta0, trials, seed = 40, 0.025, 300, 7
        s = type_template(nearest_type(p_s, n))
        target = p_s[:, None] * w
        gen = philox_stream(seed, "cond-typicality")
        violations = 0
        for _ in range(trials):
            counts = np.zeros((2, 2))
            np.add.at(counts, (s, sample_rows(gen, w[s])), 1)
            violations += int(np.abs(counts / n - target).max() > 3 * delta0 + TYPE_TOL)
        assert 0 < violations < trials
        res = run_conditional_typicality(p_s, w, n, delta0, trials, seed)
        assert res.empirical == violations / trials

    def test_seed_reproducible(self):
        w = np.array([[0.7, 0.3], [0.3, 0.7]])
        a = run_conditional_typicality(
            np.array([0.5, 0.5]), w, n=60, delta0=0.12, trials=500, seed=11
        )
        b = run_conditional_typicality(
            np.array([0.5, 0.5]), w, n=60, delta0=0.12, trials=500, seed=11
        )
        assert a.empirical == b.empirical


class TestCovering:
    def test_loose_threshold_always_succeeds(self):
        config = covering_config()
        loose = SessionConfig(
            config.spec,
            config.policy,
            CodingParams(eps=0.2, delta2=1.0, gamma=0.25, f_eps=0.1, size_cap=256),
        )
        res = run_covering(loose, nearest_type(np.array([0.5, 0.5]), 12), trials=200, seed=4)
        assert res.empirical == 1.0

    def test_reproducible(self):
        config = covering_config()
        t_y = nearest_type(np.array([0.5, 0.5]), 16)
        a = run_covering(config, t_y, trials=300, seed=5)
        b = run_covering(config, t_y, trials=300, seed=5)
        assert a.empirical == b.empirical

    def test_success_rises_along_ladder(self):
        config = covering_config()
        results = [
            run_covering(config, nearest_type(np.array([0.5, 0.5]), n), trials=600, seed=6)
            for n in (8, 16, 32)
        ]
        tc = trend_check(results, decreasing=False)
        assert tc.ok, (tc.values, tc.sigmas)


class TestPacking:
    def test_gamma_one_catches_everything(self):
        config = packing_config()
        wide = SessionConfig(
            config.spec,
            config.policy,
            CodingParams(eps=1.7, delta2=0.2, gamma=1.0, f_eps=1.0, size_cap=256),
        )
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        res = run_packing(wide, jam, n=12, trials=200, seed=7)
        assert res.empirical == 1.0

    def test_gamma_zero_generic_miss(self):
        config = packing_config()
        tight = SessionConfig(
            config.spec,
            config.policy,
            CodingParams(eps=1.7, delta2=0.2, gamma=0.0, f_eps=0.1, size_cap=256),
        )
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        res = run_packing(tight, jam, n=9, trials=300, seed=8)
        assert res.empirical <= 0.02

    def test_reproducible(self):
        config = packing_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        a = run_packing(config, jam, 10, trials=150, seed=14)
        b = run_packing(config, jam, 10, trials=150, seed=14)
        assert a.empirical == b.empirical

    def test_rate_falls_along_ladder(self):
        config = packing_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        results = [
            run_packing(config, jam, n, trials=1500, seed=11) for n in (8, 16, 32)
        ]
        tc = trend_check(results, decreasing=True)
        assert tc.ok, (tc.values, tc.sigmas)


class TestSharedTypeCache:
    def test_harnesses_on_one_config_enumerate_each_type_once(self, monkeypatch):
        import avrs.coding

        keys = []
        original = avrs.coding.valid_jammer_types

        def counting(t_y, *args, **kwargs):
            keys.append(t_y.key())
            return original(t_y, *args, **kwargs)

        monkeypatch.setattr(avrs.coding, "valid_jammer_types", counting)
        config = markov_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        n = 12
        run_covering(config, nearest_type(np.array([0.5, 0.5]), n), trials=10, seed=1)
        run_packing(config, jam, n, trials=30, seed=2)
        run_markov_conclusion(config, jam, n, 0.2, trials=30, seed=3)
        assert len(set(keys)) > 1
        assert len(keys) == len(set(keys))


class TestMarkovConclusion:
    def test_deterministic_pipeline_never_violates(self):
        spec = identity_z_spec()
        policy = AuxiliaryPolicy(np.array([[1.0]]), np.array([[0, 1]]))
        config = SessionConfig(spec, policy, CodingParams(eps=0.3, size_cap=32))
        jam = deterministic_jammer((0, 0), spec.w.shape[1])
        res = run_markov_conclusion(config, jam, n=32, delta4=0.35, trials=200, seed=9)
        assert res.empirical == 0.0

    def test_reproducible(self):
        config = markov_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        a = run_markov_conclusion(config, jam, 16, 0.2, trials=200, seed=10)
        b = run_markov_conclusion(config, jam, 16, 0.2, trials=200, seed=10)
        assert a.empirical == b.empirical

    def test_violations_fall_along_ladder(self):
        config = markov_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        results = [
            run_markov_conclusion(config, jam, n, 0.2, trials=500, seed=12)
            for n in (8, 16, 32)
        ]
        tc = trend_check(results, decreasing=True)
        assert tc.ok, (tc.values, tc.sigmas)

    def test_negative_delta4_refused(self):
        config = markov_config()
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        with pytest.raises(UsageError, match="delta4 must be >= 0"):
            run_markov_conclusion(config, jam, 8, -1.0, trials=10, seed=1)


class TestHarnessContract:
    def test_results_carry_uncertainty_fields(self):
        w = np.array([[0.7, 0.3], [0.3, 0.7]])
        res = run_conditional_typicality(
            np.array([0.5, 0.5]), w, n=40, delta0=0.15, trials=100, seed=13
        )
        assert res.trials == 100
        assert res.sigma >= 0.0
        assert res.bound is not None
