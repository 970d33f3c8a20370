import math
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

import avrs.coding
import avrs.mtypes
from avrs.adversary import Jammer, deterministic_jammer, fixed_vector_jammer
from avrs.bounds import joint_uz
from avrs.coding import (
    Codebook,
    CodebookFamily,
    SessionConfig,
    decode,
    decoder_membership,
    encode,
    reconstruct,
    sample_typical_sources,
    simulate_session,
    simulate_sessions,
)
from avrs.errors import UsageError
from avrs.model import load_policy, load_problem_spec
from avrs.mtypes import TypeTable, compositions, nearest_type, type_template, valid_jammer_types
from avrs.rng import cumulative, derive_seed, inverse_cdf, philox_stream

from conftest import (
    blind_y_spec,
    classical_spec,
    identity_policy,
    identity_z_spec,
    noisy_policy,
    type_of,
    wz_spec,
    xor_spec,
)
from oracles import session_oracle


def _bin(cb, m):
    """Codeword indices of bin m of ``cb``; a truncated code's last bin is short."""
    lo = m * cb.data.bin_size
    return np.arange(lo, min(lo + cb.data.bin_size, cb.data.num_codewords))


def _membership(cb, m, z, gamma):
    """Decoder list flags of bin m of ``cb`` against the side information z."""
    return decoder_membership(cb.matrix()[_bin(cb, m)], z, cb.data.decoder_targets, gamma)


def wz_config(eps=0.2, cap=512, **kw):
    spec = wz_spec()
    policy = noisy_policy(spec)
    return SessionConfig(spec, policy, eps=eps, size_cap=cap, **kw)


class TestCodebookConstruction:
    def test_exact_count_below_cap(self):
        config = wz_config(cap=1 << 20)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([6, 6]), 12)
        data = family.type_data(t_y)
        assert data.num_codewords == math.ceil(2 ** (12 * data.rates.r_u))
        assert not data.truncated
        assert data.num_bins * data.bin_size >= data.num_codewords

    def test_truncation_flagged(self):
        config = wz_config(cap=64)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([16, 16]), 32)
        cb = Codebook(family.type_data(t_y), 0)
        assert cb.data.truncated
        assert cb.data.num_codewords == 64
        assert cb.matrix().shape == (64, 32)

    def test_same_key_same_codeword(self):
        config = wz_config()
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([6, 6]), 12)
        cb1 = Codebook(family.type_data(t_y), 77)
        cb2 = Codebook(family.type_data(t_y), 77)
        assert np.array_equal(cb1.matrix(), cb2.matrix())

    def test_matrix_is_drawn_once_and_kept(self):
        # the benchmark tracer reads _matrix to count materializations
        cb = Codebook(CodebookFamily(wz_config()).type_data(TypeTable(np.array([6, 6]), 12)), 77)
        assert cb._matrix is None
        first = cb.matrix()
        assert cb._matrix is first
        assert cb.matrix() is first

    def test_different_seeds_differ(self):
        config = wz_config()
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([6, 6]), 12)
        a = Codebook(family.type_data(t_y), 1).matrix()
        b = Codebook(family.type_data(t_y), 2).matrix()
        assert not np.array_equal(a, b)

    def test_marginal_statistics(self):
        # symbol frequencies across many codewords match the sampling pmf
        config = wz_config(cap=16384)
        family = CodebookFamily(config)
        n = 32
        t_y = TypeTable(np.array([20, 12]), n)
        cb = Codebook(family.type_data(t_y), 9)
        mat = cb.matrix()[: 10_000 // n * n]
        p1 = float((t_y.probabilities @ config.policy.p_u_given_y)[1])
        draws = mat.size
        freq = float(np.mean(mat))
        sigma = math.sqrt(p1 * (1 - p1) / draws)
        assert abs(freq - p1) <= 3 * sigma


class TestCodewordKernel:
    @pytest.mark.parametrize("nu", [2, 3])
    def test_equals_searchsorted(self, nu):
        pick = np.random.default_rng(nu)
        for trial in range(200):
            p = pick.dirichlet(np.ones(nu))
            if nu == 3 and trial % 4 == 0:
                p[trial % 3] = 0.0  # a zero-probability symbol repeats a CDF edge
                p /= p.sum()
            cdf = cumulative(p)
            u = pick.random((6, 16))
            edges = cdf[:-1][cdf[:-1] < 1.0]
            u[0, : edges.size] = edges  # uniforms exactly on the edges
            u[1, 0] = 0.0
            got = inverse_cdf(cdf, u)
            assert got.dtype.itemsize == 1
            assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


class TestTypeData:
    @pytest.mark.parametrize("make_spec", [xor_spec, blind_y_spec, wz_spec])
    def test_decoder_targets_are_the_distinct_jammer_joints(self, make_spec):
        # the targets once came from a sorting np.unique over the rounded
        # joints; any order serves the decoder's minimum, but the set must be
        # the same and hold each joint once
        spec = make_spec()
        config = SessionConfig(spec, noisy_policy(spec), eps=0.2)
        coinciding = 0
        for n in (4, 8, 12):
            for counts in compositions(n, spec.w.shape[2]):
                t_y = TypeTable(np.array(counts), n)
                kernels = valid_jammer_types(t_y, spec, config.f_eps, n)
                joints = np.round(joint_uz(spec, kernels, config.policy.p_u_given_y), 12)
                expected = np.unique(joints, axis=0)
                got = config.family.type_data(t_y).decoder_targets
                assert len(got) == len(expected), (n, counts)
                assert np.array_equal(np.unique(got, axis=0), expected), (n, counts)
                coinciding += len(joints) - len(expected)
        # the Y-blind and xor specs give many jammer types one (U, Z) joint
        assert (coinciding > 0) == (make_spec is not wz_spec)

    def test_signed_zeros_are_one_target(self):
        # the dedupe compares bytes, so it must not tell -0.0 from 0.0 as the
        # value comparison of np.unique did
        tables = np.array([[[0.0, 0.5]], [[-0.0, 0.5]], [[0.5, 0.0]]])
        got = avrs.coding._distinct(tables)
        assert np.array_equal(np.unique(got, axis=0), np.unique(tables, axis=0))
        assert len(got) == 2

    def test_a_run_enumerates_the_realizable_tables_once(self):
        builder = avrs.mtypes._realizable_jammer_types
        builder.cache_clear()
        config = wz_config()
        count, n = 40, 8
        xs = philox_stream(5, "xs").integers(0, 2, (count, n))
        batch = simulate_sessions(xs, _jammer("memoryless", config.spec, n), config, range(count))
        types = {tuple(np.bincount(y, minlength=2)) for y in batch.y}
        assert len(types) >= 5
        # one build, then one cache hit for each further Y-type
        assert builder.cache_info().misses == 1
        assert builder.cache_info().hits == len(types) - 1


class TestEncode:
    def test_exact_partner_selected(self):
        # find a code draw whose first codewords include an exact
        # conditional-typical partner of some y in the type class
        spec = classical_spec()
        policy = identity_policy(spec)  # U = Y
        config = SessionConfig(spec, policy, eps=0.4, size_cap=64)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([3, 3]), 6)
        hit = None
        for seed in range(200):
            cb = Codebook(family.type_data(t_y), seed)
            for g, row in enumerate(cb.matrix()):
                if type_of(row, 2) == t_y:
                    hit = (cb, g)
                    break
            if hit:
                break
        assert hit is not None
        cb, g = hit
        # with U = Y, the only delta2=0 satisfiers are codewords equal to y
        y = cb.matrix()[g]
        res = encode(y, cb, delta2=0.0, rng=philox_stream(0))
        assert not res.fallback_used
        assert np.array_equal(cb.matrix()[res.codeword], y)

    def test_loose_threshold_uniform_choice(self):
        config = wz_config(cap=16)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([4, 4]), 8)
        cb = Codebook(family.type_data(t_y), 3)
        y = type_template(t_y)
        total = cb.data.num_codewords
        counts = np.zeros(total)
        trials = 10_000
        for t in range(trials):
            res = encode(y, cb, delta2=1.0, rng=philox_stream(1000 + t))
            assert not res.fallback_used
            counts[res.codeword] += 1
        expected = trials / total
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        # chi-square 1% critical values for df = total - 1
        from math import inf

        critical = {15: 30.578}
        assert chi2 <= critical.get(total - 1, inf)

    def test_zero_threshold_generic_fallback(self):
        config = wz_config(cap=64)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([4, 4]), 8)
        cb = Codebook(family.type_data(t_y), 12345)
        res = encode(type_template(t_y), cb, delta2=0.0, rng=philox_stream(0))
        assert res.fallback_used
        assert res.codeword == 0

    def test_type_mismatch_rejected(self):
        config = wz_config()
        cb = Codebook(CodebookFamily(config).type_data(TypeTable(np.array([4, 4]), 8)), 0)
        with pytest.raises(UsageError):
            encode(np.zeros(8, dtype=int), cb, 0.5, philox_stream(0))

    def test_block_outside_the_alphabet_refused(self):
        config = wz_config()
        cb = Codebook(CodebookFamily(config).type_data(TypeTable(np.array([4, 4]), 8)), 0)
        for y in ([0, 1] * 3 + [2, 1], [0, 1] * 3 + [-1, 1], [0, 1] * 5, [[0, 1] * 4] * 2):
            with pytest.raises(UsageError):
                encode(np.array(y), cb, 0.5, philox_stream(0))

    def test_non_fallback_satisfies_threshold(self):
        config = wz_config()
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([5, 3]), 8)
        delta2 = 0.25
        target = (t_y.probabilities[:, None] * config.policy.p_u_given_y).T
        for seed in range(30):
            cb = Codebook(family.type_data(t_y), seed)
            y = philox_stream(seed).permutation(type_template(t_y))
            res = encode(y, cb, delta2, philox_stream(seed, "tie"))
            if res.fallback_used:
                continue
            u = cb.matrix()[res.codeword]
            counts = np.zeros((2, 2))
            for a, b in zip(u, y):
                counts[a, b] += 1
            assert np.abs(counts / 8 - target).max() <= delta2 + 1e-12


class TestDecode:
    def test_unique_member_returned(self):
        config = wz_config(cap=256)
        family = CodebookFamily(config)
        n = 12
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        spec = config.spec
        for seed in range(100):
            cb = Codebook(family.type_data(t_y), seed)
            z = philox_stream(seed, "z").integers(0, 2, n)
            for m in range(cb.data.num_bins):
                member = _membership(cb, m, z, config.gamma)
                if member.sum() == 1:
                    g = _bin(cb, m)[decode(member)]
                    assert g == _bin(cb, m)[int(np.argmax(member))]
                    return
        pytest.fail("no uniquely-decodable bin found in the sweep")

    def test_gamma_zero_no_match_falls_back(self):
        config = wz_config(cap=64)
        family = CodebookFamily(config)
        n = 10
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        cb = Codebook(family.type_data(t_y), 3)
        z = philox_stream(8).integers(0, 2, n)
        member = _membership(cb, 0, z, 0.0)
        if member.any():
            pytest.skip("seed produced an exact type match")
        assert _bin(cb, 0)[decode(member)] == _bin(cb, 0)[0]

    def test_multiple_members_fall_back_to_first(self):
        # a clean side-information channel keeps the within-bin rate positive,
        # so bins hold several codewords and collisions occur
        spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
        policy = noisy_policy(spec, stay=0.95)
        config = SessionConfig(
            spec, policy, eps=0.2, f_eps=0.1, size_cap=256
        )
        family = CodebookFamily(config)
        n = 12
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        for seed in range(200):
            cb = Codebook(family.type_data(t_y), seed)
            z = philox_stream(seed, "zz").integers(0, 2, n)
            for m in range(cb.data.num_bins):
                member = _membership(cb, m, z, config.gamma)
                if member.sum() >= 2:
                    assert _bin(cb, m)[decode(member)] == _bin(cb, m)[0]
                    return
        pytest.fail("no multi-member bin found in the sweep")

    def test_decode_is_deterministic(self):
        config = wz_config(cap=128)
        family = CodebookFamily(config)
        n = 12
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        cb = Codebook(family.type_data(t_y), 4)
        z = philox_stream(2).integers(0, 2, n)
        member_a = _membership(cb, 0, z, 0.3)
        member_b = _membership(cb, 0, z, 0.3)
        assert decode(member_a) == decode(member_b)
        assert np.array_equal(member_a, member_b)


class TestReconstruct:
    def test_copy_side_information(self):
        zeta = np.array([[0, 1], [0, 1]])  # zeta(u, z) = z
        u = np.array([0, 1, 1])
        z = np.array([1, 0, 1])
        out = reconstruct(u, z, zeta)
        assert np.array_equal(out, z)

    def test_constant_map(self):
        zeta = np.ones((2, 2), dtype=int)
        u = np.array([0, 1, 0])
        z = np.array([1, 0, 0])
        out = reconstruct(u, z, zeta)
        assert np.array_equal(out, [1, 1, 1])

    def test_random_table_elementwise(self, rng):
        zeta = rng.integers(0, 3, (4, 2))
        u = rng.integers(0, 4, (3, 16))
        z = rng.integers(0, 2, (3, 16))
        out = reconstruct(u, z, zeta)
        for t in range(3):
            for i in range(16):
                assert out[t, i] == zeta[u[t, i], z[t, i]]

    def test_length_mismatch(self):
        zeta = np.zeros((2, 2), dtype=int)
        with pytest.raises(UsageError):
            reconstruct(np.array([0, 1]), np.array([0]), zeta)


class TestSessions:
    def test_identity_channel_zero_distortion(self):
        # decoder side information is the source itself and zeta copies it
        spec = identity_z_spec()
        policy = identity_policy(spec, u_size=1)
        zeta = np.array([[0, 1]])  # zeta(u, z) = z
        from avrs.model import AuxiliaryPolicy

        policy = AuxiliaryPolicy(np.array([[1.0]]), zeta)
        config = SessionConfig(spec, policy, eps=0.3, size_cap=64)
        jam = deterministic_jammer((0, 1), spec.w.shape[1])
        rep = simulate_session(np.array([0, 1, 1, 0, 1, 0]), jam, config, seed=1)
        assert rep.distortion.tolist() == [0.0]

    def test_blind_zero_rate_near_half(self):
        # |U| = 1, Z constant: reconstruction cannot depend on the source
        spec = classical_spec()
        from avrs.model import AuxiliaryPolicy

        policy = AuxiliaryPolicy(np.array([[1.0], [1.0]]), np.array([[0]]))
        config = SessionConfig(spec, policy, eps=0.3, size_cap=16)
        jam = deterministic_jammer((0, 0), spec.w.shape[1])
        n, trials = 24, 400
        xs = np.stack([philox_stream(t, "x").integers(0, 2, n) for t in range(trials)])
        vals = simulate_sessions(xs, jam, config, list(range(trials))).distortion
        mean = float(np.mean(vals))
        sigma = float(np.std(vals) / math.sqrt(trials))
        assert abs(mean - 0.5) <= 4 * sigma

    def test_session_determinism(self):
        config = wz_config()
        jam = Jammer([[0.6, 0.4], [0.6, 0.4]])
        x = philox_stream(5).integers(0, 2, 16)
        a = simulate_session(x, jam, config, seed=99)
        b = simulate_session(x, jam, config, seed=99)
        for f in fields(a):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    def test_distortion_within_range(self):
        config = wz_config()
        jam = deterministic_jammer((1, 0), config.spec.w.shape[1])
        xs = np.stack([philox_stream(t, "r").integers(0, 2, 12) for t in range(50)])
        dist = simulate_sessions(xs, jam, config, list(range(50))).distortion
        assert ((0.0 <= dist) & (dist <= config.spec.d.max())).all()

    def test_message_bits_accounting(self):
        config = wz_config()
        family = config.family
        jam = deterministic_jammer((0, 0), config.spec.w.shape[1])
        rep = simulate_session(philox_stream(1, "m").integers(0, 2, 16), jam, config, seed=7)
        num_bins = family.type_data(type_of(rep.y[0], 2)).num_bins
        expected = math.ceil(math.log2(num_bins)) if num_bins > 1 else 0
        assert rep.message_bits.tolist() == [expected]


def _edge_config(delta2=0.12):
    """Truncated codes (cap 40) with short last bins, bins of 6 codewords
    and single-bin types without decoder targets."""
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    return SessionConfig(spec, noisy_policy(spec, stay=0.95), eps=0.2, f_eps=0.1, delta2=delta2, size_cap=40)


def _readme_config():
    """The README instance at its CLI defaults; at n = 16 it has single-bin
    types of 13 and 28 codewords with no decoder targets."""
    spec = load_problem_spec("tests/data/spec_binary.json")
    policy = load_policy("tests/data/policy_binary.json", spec)
    return SessionConfig(spec, policy, eps=0.2, size_cap=4096)


def _jammer(kind, spec, n):
    if kind == "deterministic":
        return deterministic_jammer((1, 0), spec.w.shape[1])
    if kind == "block":
        return fixed_vector_jammer(np.arange(n) % 2, *spec.w.shape[:2], "alternate")
    rows = [[0.6, 0.4], [1.0, 0.0]]  # random only where x = 0
    return Jammer(rows)


def _check_against_oracle(config, jammer, xs, seeds, code_seeds=None):
    """Every field of every session, from the engine and from a one-row
    engine call, bit for bit against the oracle; returns the engine's batch."""
    batch = simulate_sessions(xs, jammer, config, seeds, code_seeds)
    for t, seed in enumerate(seeds):
        code = None if code_seeds is None else code_seeds[t]
        one = simulate_sessions(xs[t : t + 1], jammer, config, [seed], None if code is None else [code])
        assert np.array_equal(one.x, xs[t : t + 1])
        for name, want in session_oracle(xs[t], jammer, config, seed, code).items():
            assert np.array_equal(getattr(batch, name)[t], want), (t, name)
            assert np.array_equal(getattr(one, name)[0], want), (t, name)
    return batch


# a budget of two full (40-codeword) books of _edge_config per call at n = 12
TWO_BOOKS = 2 * 40 * 12


class TestSessionEngine:
    @pytest.mark.parametrize("kind", ["deterministic", "block", "memoryless"])
    @pytest.mark.parametrize("count", [1, 15, 16, 17])
    def test_matches_oracle(self, monkeypatch, kind, count):
        # at two books per call, 15 to 17 sessions span several Y-type
        # groups, and the larger groups run in parts
        monkeypatch.setattr(avrs.coding, "GROUP_SYMBOLS", TWO_BOOKS)
        config = _edge_config()
        n = 12
        xs = philox_stream(count, "xs").integers(0, 2, (count, n))
        seeds = [derive_seed(31, kind, t) for t in range(count)]
        _check_against_oracle(config, _jammer(kind, config.spec, n), xs, seeds)

    def test_pinned_codes_repeat_within_a_call(self):
        # three codes over 35 sessions, as ensemble members repeat
        config = _edge_config()
        count, n = 35, 12
        xs = philox_stream(4, "xs").integers(0, 2, (count, n))
        seeds = [derive_seed(32, t) for t in range(count)]
        codes = [derive_seed(33, t % 3) for t in range(count)]
        batch = _check_against_oracle(config, _jammer("memoryless", config.spec, n), xs, seeds, codes)
        assert batch.code_seed == tuple(codes)

    def test_groups_over_the_symbol_budget_run_in_parts(self, monkeypatch):
        config = _edge_config()
        count, n = 16, 12
        monkeypatch.setattr(avrs.coding, "GROUP_SYMBOLS", TWO_BOOKS)
        calls = []
        run_group = avrs.coding._run_group

        def recording(out, members, cws, data, *rest):
            calls.append((len(members), data.num_codewords, data.t_y.key()))
            return run_group(out, members, cws, data, *rest)

        monkeypatch.setattr(avrs.coding, "_run_group", recording)
        xs = philox_stream(5, "xs").integers(0, 2, (count, n))
        seeds = [derive_seed(35, t) for t in range(count)]
        codes = [derive_seed(36, t % 3) for t in range(count)]
        jam = _jammer("block", config.spec, n)
        simulate_sessions(xs, jam, config, seeds, codes)
        batched = list(calls)
        _check_against_oracle(config, jam, xs, seeds, codes)
        assert all(size == 1 or size * cws * n <= TWO_BOOKS for size, cws, _ in batched)
        assert sum(size for size, _, _ in batched) == count
        assert max(Counter(key for _, _, key in batched).values()) > 1  # a group ran in parts

    def test_a_split_group_draws_each_code_once(self, monkeypatch):
        # codes t % 3 in parts of two sessions, where a code's sessions
        # continue from one part into the next
        config = _edge_config()
        count, n = 24, 12
        monkeypatch.setattr(avrs.coding, "GROUP_SYMBOLS", TWO_BOOKS)
        xs = philox_stream(5, "xs").integers(0, 2, (count, n))
        seeds = [derive_seed(35, t) for t in range(count)]
        codes = [derive_seed(36, t % 3) for t in range(count)]
        draws, parts = [], []
        draw, run_group = avrs.coding._draw_codewords, avrs.coding._run_group

        def counting_draw(gen, data):
            # the generator's key identifies the (code seed, type) stream
            draws.append(gen.bit_generator.state["state"]["key"].tobytes())
            return draw(gen, data)

        def recording(out, members, cws, data, *rest):
            parts.append((data.t_y.key(), [codes[t] for t in members]))
            return run_group(out, members, cws, data, *rest)

        monkeypatch.setattr(avrs.coding, "_draw_codewords", counting_draw)
        monkeypatch.setattr(avrs.coding, "_run_group", recording)
        batch = simulate_sessions(xs, _jammer("block", config.spec, n), config, seeds, codes)
        pairs = {(tuple(np.bincount(y, minlength=2)), code) for y, code in zip(batch.y, batch.code_seed)}
        assert len(set(draws)) == len(draws) == len(pairs)
        assert any(a[0] == b[0] and a[1][-1] == b[1][0] for a, b in zip(parts, parts[1:]))

    def test_cases_reach_the_edge_geometries(self):
        seen = set()
        cases = ((_edge_config(), 12, 48), (_edge_config(delta2=0.05), 12, 17), (_readme_config(), 16, 64))
        for config, n, count in cases:
            xs = philox_stream(n, "xs").integers(0, 2, (count, n))
            seeds = [derive_seed(34, n, t) for t in range(count)]
            batch = _check_against_oracle(config, _jammer("deterministic", config.spec, n), xs, seeds)
            for t in range(count):
                data = config.family.type_data(type_of(batch.y[t], 2))
                last = int(batch.bin_index[t]) == data.num_bins - 1
                seen.add(("short last bin", last and data.num_codewords % data.bin_size != 0))
                seen.add(("bins of several codewords", data.bin_size > 1 and data.num_bins > 1))
                seen.add(("no decoder targets", data.decoder_targets.shape[0] == 0))
                seen.add(("single bin of 13 or 28", data.num_bins == 1 and data.bin_size in (13, 28)))
            seen.add(("fallback", bool(batch.e_enc.any())))
            seen.add(("false candidate", bool(batch.e_dec2.any())))
        assert {name for name, hit in seen if hit} == {name for name, _ in seen}

    def test_rejects_mismatched_inputs(self):
        config = _edge_config()
        jam = _jammer("deterministic", config.spec, 4)
        with pytest.raises(UsageError):
            simulate_sessions(np.zeros((2, 4), dtype=int), jam, config, [1])
        with pytest.raises(UsageError):
            simulate_sessions(np.full((1, 4), 2), jam, config, [1])
        with pytest.raises(UsageError):
            simulate_sessions(np.zeros((2, 4), dtype=int), jam, config, [1, 2], [5])


class TestDecodeErrorTrend:
    def test_error_frequency_non_increasing_in_blocklength(self):
        # among encoder-good sessions, list-decoding errors do not grow with n
        spec = wz_spec(flip_y=0.01, jam_extra=0.02, flip_z=0.01)
        config = SessionConfig(
            spec,
            noisy_policy(spec, stay=0.9),
            eps=1.7, delta2=0.2, gamma=0.2, f_eps=0.1, size_cap=4096,
        )
        jam = deterministic_jammer((0, 0), spec.w.shape[1])
        cdf = np.cumsum(spec.p_x)
        cdf[-1] = 1.0
        rates, sigmas = [], []
        for n in (8, 16, 32):
            seeds = [derive_seed(123, n, t) for t in range(500)]
            xs = np.stack([np.searchsorted(cdf, philox_stream(s, "x").random(n), side="right") for s in seeds])
            rep = simulate_sessions(xs, jam, config, seeds)
            good = int((~rep.e_enc).sum())
            errors = int((~rep.e_enc & (rep.e_dec1 | rep.e_dec2)).sum())
            p = errors / good
            rates.append(p)
            sigmas.append(math.sqrt(p * (1 - p) / good))
        for a, b, sa, sb in zip(rates, rates[1:], sigmas, sigmas[1:]):
            assert b <= a + 3 * math.hypot(sa, sb), (rates, sigmas)


class TestMaxDistortion:
    def test_tiny_blocklength_diagnostic(self, monkeypatch):
        # five draws cannot yield six blocks, typical or not
        monkeypatch.setattr(avrs.coding, "MAX_SOURCE_DRAWS", 5)
        with pytest.raises(UsageError, match="typical"):
            sample_typical_sources(classical_spec(0.9), 3, 6, 0)
