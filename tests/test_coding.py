import math
from collections import Counter

import numpy as np
import pytest

import avrs.coding
from avrs.adversary import DeterministicJammer, MemorylessJammer, fixed_vector_jammer
from avrs.coding import (
    SESSION_CHUNK,
    CodebookFamily,
    CodingParams,
    SessionConfig,
    _codewords,
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
from avrs.mtypes import SymbolVector, TypeTable, empirical_type, nearest_type, type_template
from avrs.probability import Alphabet, CondDistribution
from avrs.rng import derive_seed, philox_stream

from conftest import (
    classical_spec,
    identity_policy,
    identity_z_spec,
    noisy_policy,
    wz_spec,
)
from oracles import session_oracle


def _membership(cb, m, z, gamma):
    """Decoder list flags of bin m of ``cb`` against the side information z."""
    targets = cb.family.type_data(cb.t_y).decoder_targets
    return decoder_membership(cb.matrix()[cb.bin_indices(m)], z.symbols, targets, gamma)


def wz_config(eps=0.2, cap=512, **kw):
    spec = wz_spec()
    policy = noisy_policy(spec)
    params = CodingParams(eps=eps, size_cap=cap, **kw)
    return SessionConfig(spec, policy, params)


class TestCodebookConstruction:
    def test_exact_count_below_cap(self):
        config = wz_config(cap=1 << 20)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([6, 6]), 12)
        cb = family.codebook(t_y, 0)
        assert cb.num_codewords == math.ceil(2 ** (12 * cb.r_u))
        assert not cb.truncated
        assert cb.num_bins * cb.bin_size >= cb.num_codewords

    def test_truncation_flagged(self):
        config = wz_config(cap=64)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([16, 16]), 32)
        cb = family.codebook(t_y, 0)
        assert cb.truncated
        assert cb.num_codewords == 64

    def test_same_key_same_codeword(self):
        config = wz_config()
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([6, 6]), 12)
        cb1 = family.codebook(t_y, 77)
        cb2 = family.codebook(t_y, 77)
        assert np.array_equal(cb1.matrix(), cb2.matrix())

    def test_different_seeds_differ(self):
        config = wz_config()
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([6, 6]), 12)
        a = family.codebook(t_y, 1).matrix()
        b = family.codebook(t_y, 2).matrix()
        assert not np.array_equal(a, b)

    def test_marginal_statistics(self):
        # symbol frequencies across many codewords match the sampling pmf
        config = wz_config(cap=16384)
        family = CodebookFamily(config)
        n = 32
        t_y = TypeTable(np.array([20, 12]), n)
        cb = family.codebook(t_y, 9)
        mat = cb.matrix()[: 10_000 // n * n]
        p1 = float(cb.p_u.mass[1])
        draws = mat.size
        freq = float(np.mean(mat))
        sigma = math.sqrt(p1 * (1 - p1) / draws)
        assert abs(freq - p1) <= 3 * sigma

    def test_index_bounds(self):
        config = wz_config()
        cb = CodebookFamily(config).codebook(TypeTable(np.array([6, 6]), 12), 5)
        with pytest.raises(UsageError):
            cb.bin_indices(cb.num_bins)
        with pytest.raises(UsageError):
            cb.bin_indices(-1)


class TestCodewordKernel:
    @pytest.mark.parametrize("nu", [2, 3])
    def test_equals_searchsorted(self, nu):
        pick = np.random.default_rng(nu)
        for trial in range(200):
            p = pick.dirichlet(np.ones(nu))
            if nu == 3 and trial % 4 == 0:
                p[trial % 3] = 0.0  # a zero-probability symbol repeats a CDF edge
                p /= p.sum()
            cdf = np.cumsum(p)
            cdf[-1] = 1.0
            u = pick.random((6, 16))
            edges = cdf[:-1][cdf[:-1] < 1.0]
            u[0, : edges.size] = edges  # uniforms exactly on the edges
            u[1, 0] = 0.0
            got = _codewords(u, cdf)
            assert got.dtype.itemsize == 1
            assert np.array_equal(got, np.searchsorted(cdf, u, side="right"))


class TestEncode:
    def test_exact_partner_selected(self):
        # find a code draw whose first codewords include an exact
        # conditional-typical partner of some y in the type class
        spec = classical_spec()
        policy = identity_policy(spec)  # U = Y
        config = SessionConfig(spec, policy, CodingParams(eps=0.4, size_cap=64))
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([3, 3]), 6)
        hit = None
        for seed in range(200):
            cb = family.codebook(t_y, seed)
            types = [empirical_type(SymbolVector(cb.u_alphabet, row)) for row in cb.matrix()]
            for g, t in enumerate(types):
                if t == t_y:
                    hit = (cb, g)
                    break
            if hit:
                break
        assert hit is not None
        cb, g = hit
        # with U = Y, the only delta2=0 satisfiers are codewords equal to y
        y = SymbolVector(spec.y_alphabet, cb.matrix()[g])
        res = encode(y, cb, delta2=0.0, rng=philox_stream(0))
        assert not res.fallback_used
        chosen = cb.matrix()[res.codeword_index[0] * cb.bin_size + res.codeword_index[1]]
        assert np.array_equal(chosen, y.symbols)

    def test_loose_threshold_uniform_choice(self):
        config = wz_config(cap=16)
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([4, 4]), 8)
        cb = family.codebook(t_y, 3)
        y = SymbolVector(config.spec.y_alphabet, type_template(t_y))
        total = cb.num_codewords
        counts = np.zeros(total)
        trials = 10_000
        for t in range(trials):
            res = encode(y, cb, delta2=1.0, rng=philox_stream(1000 + t))
            assert not res.fallback_used
            g = res.codeword_index[0] * cb.bin_size + res.codeword_index[1]
            counts[g] += 1
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
        cb = family.codebook(t_y, 12345)
        y = SymbolVector(config.spec.y_alphabet, type_template(t_y))
        res = encode(y, cb, delta2=0.0, rng=philox_stream(0))
        assert res.fallback_used
        assert res.codeword_index == (0, 0)

    def test_type_mismatch_rejected(self):
        config = wz_config()
        cb = CodebookFamily(config).codebook(TypeTable(np.array([4, 4]), 8), 0)
        y = SymbolVector(config.spec.y_alphabet, [0] * 8)
        with pytest.raises(UsageError):
            encode(y, cb, 0.5, philox_stream(0))

    def test_non_fallback_satisfies_threshold(self):
        config = wz_config()
        family = CodebookFamily(config)
        t_y = TypeTable(np.array([5, 3]), 8)
        delta2 = 0.25
        target = (t_y.probabilities[:, None] * config.policy.p_u_given_y.matrix).T
        for seed in range(30):
            cb = family.codebook(t_y, seed)
            y = SymbolVector(config.spec.y_alphabet, philox_stream(seed).permutation(type_template(t_y)))
            res = encode(y, cb, delta2, philox_stream(seed, "tie"))
            if res.fallback_used:
                continue
            g = res.codeword_index[0] * cb.bin_size + res.codeword_index[1]
            u = cb.matrix()[g]
            counts = np.zeros((2, 2))
            for a, b in zip(u, y.symbols):
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
            cb = family.codebook(t_y, seed)
            z = SymbolVector(spec.z_alphabet, philox_stream(seed, "z").integers(0, 2, n))
            for m in range(cb.num_bins):
                member = _membership(cb, m, z, config.params.gamma)
                if member.sum() == 1:
                    g = cb.bin_indices(m)[decode(member)]
                    assert g == cb.bin_indices(m)[int(np.argmax(member))]
                    return
        pytest.fail("no uniquely-decodable bin found in the sweep")

    def test_gamma_zero_no_match_falls_back(self):
        config = wz_config(cap=64)
        family = CodebookFamily(config)
        n = 10
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        cb = family.codebook(t_y, 3)
        z = SymbolVector(config.spec.z_alphabet, philox_stream(8).integers(0, 2, n))
        member = _membership(cb, 0, z, 0.0)
        if member.any():
            pytest.skip("seed produced an exact type match")
        assert cb.bin_indices(0)[decode(member)] == cb.bin_indices(0)[0]

    def test_multiple_members_fall_back_to_first(self):
        # a clean side-information channel keeps the within-bin rate positive,
        # so bins hold several codewords and collisions occur
        spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
        policy = noisy_policy(spec, stay=0.95)
        config = SessionConfig(
            spec, policy, CodingParams(eps=0.2, f_eps=0.1, size_cap=256)
        )
        family = CodebookFamily(config)
        n = 12
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        for seed in range(200):
            cb = family.codebook(t_y, seed)
            z = SymbolVector(spec.z_alphabet, philox_stream(seed, "zz").integers(0, 2, n))
            for m in range(cb.num_bins):
                member = _membership(cb, m, z, config.params.gamma)
                if member.sum() >= 2:
                    assert cb.bin_indices(m)[decode(member)] == cb.bin_indices(m)[0]
                    return
        pytest.fail("no multi-member bin found in the sweep")

    def test_decode_is_deterministic(self):
        config = wz_config(cap=128)
        family = CodebookFamily(config)
        n = 12
        t_y = nearest_type(np.array([0.5, 0.5]), n)
        cb = family.codebook(t_y, 4)
        z = SymbolVector(config.spec.z_alphabet, philox_stream(2).integers(0, 2, n))
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

        policy = AuxiliaryPolicy(
            CondDistribution(spec.y_alphabet, Alphabet("U", 1), [[1.0]]),
            zeta,
            spec.z_alphabet,
            spec.xhat_alphabet,
        )
        config = SessionConfig(spec, policy, CodingParams(eps=0.3, size_cap=64))
        jam = DeterministicJammer((0, 1), spec.j_alphabet)
        x = SymbolVector(spec.x_alphabet, [0, 1, 1, 0, 1, 0])
        rep = simulate_session(x, jam, config, seed=1)
        assert rep.distortion == 0.0

    def test_blind_zero_rate_near_half(self):
        # |U| = 1, Z constant: reconstruction cannot depend on the source
        spec = classical_spec()
        from avrs.model import AuxiliaryPolicy

        policy = AuxiliaryPolicy(
            CondDistribution(spec.y_alphabet, Alphabet("U", 1), [[1.0], [1.0]]),
            np.array([[0]]),
            spec.z_alphabet,
            spec.xhat_alphabet,
        )
        config = SessionConfig(spec, policy, CodingParams(eps=0.3, size_cap=16))
        jam = deterministic = DeterministicJammer((0,) * 2, spec.j_alphabet)
        n, trials = 24, 400
        vals = []
        for t in range(trials):
            x = SymbolVector(
                spec.x_alphabet, philox_stream(t, "x").integers(0, 2, n)
            )
            vals.append(simulate_session(x, jam, config, seed=t).distortion)
        mean = float(np.mean(vals))
        sigma = float(np.std(vals) / math.sqrt(trials))
        assert abs(mean - 0.5) <= 4 * sigma

    def test_session_determinism(self):
        config = wz_config()
        jam = MemorylessJammer(
            CondDistribution(
                config.spec.x_alphabet, config.spec.j_alphabet, [[0.6, 0.4], [0.6, 0.4]]
            )
        )
        x = SymbolVector(config.spec.x_alphabet, philox_stream(5).integers(0, 2, 16))
        a = simulate_session(x, jam, config, seed=99)
        b = simulate_session(x, jam, config, seed=99)
        assert a.distortion == b.distortion
        assert np.array_equal(a.u_decoded.symbols, b.u_decoded.symbols)
        assert np.array_equal(a.x_hat.symbols, b.x_hat.symbols)
        assert (a.e_enc, a.e_dec1, a.e_dec2) == (b.e_enc, b.e_dec1, b.e_dec2)

    def test_distortion_within_range(self):
        config = wz_config()
        jam = DeterministicJammer((1, 0), config.spec.j_alphabet)
        for t in range(50):
            x = SymbolVector(config.spec.x_alphabet, philox_stream(t, "r").integers(0, 2, 12))
            rep = simulate_session(x, jam, config, seed=t)
            assert 0.0 <= rep.distortion <= config.spec.d.d_max

    def test_message_bits_accounting(self):
        config = wz_config()
        family = config.family
        jam = DeterministicJammer((0, 0), config.spec.j_alphabet)
        x = SymbolVector(config.spec.x_alphabet, philox_stream(1, "m").integers(0, 2, 16))
        rep = simulate_session(x, jam, config, seed=7)
        cb = family.codebook(empirical_type(rep.y), rep.code_seed)
        expected = math.ceil(math.log2(cb.num_bins)) if cb.num_bins > 1 else 0
        assert rep.message_bits == expected


def _edge_config(delta2=0.12):
    """Truncated codes (cap 40) with short last bins, bins of 6 codewords
    and single-bin types without decoder targets."""
    spec = wz_spec(flip_y=0.05, jam_extra=0.1, flip_z=0.05)
    params = CodingParams(eps=0.2, f_eps=0.1, delta2=delta2, size_cap=40)
    return SessionConfig(spec, noisy_policy(spec, stay=0.95), params)


def _readme_config():
    """The README instance at its CLI defaults; at n = 16 it has single-bin
    types of 13 and 28 codewords with no decoder targets."""
    spec = load_problem_spec("tests/data/spec_binary.json")
    policy = load_policy("tests/data/policy_binary.json", spec)
    return SessionConfig(spec, policy, CodingParams(eps=0.2, size_cap=4096))


def _jammer(kind, spec, n):
    if kind == "deterministic":
        return DeterministicJammer((1, 0), spec.j_alphabet)
    if kind == "block":
        return fixed_vector_jammer(np.arange(n) % 2, spec.j_alphabet, "alternate")
    rows = [[0.6, 0.4], [1.0, 0.0]]  # random only where x = 0
    return MemorylessJammer(CondDistribution(spec.x_alphabet, spec.j_alphabet, rows))


def _check_against_oracle(config, jammer, xs, seeds, code_seeds=None):
    """Every field of every session, from the engine and from the one-row
    view, bit for bit against the oracle; returns the engine's batch."""
    batch = simulate_sessions(xs, jammer, config, seeds, code_seeds)
    for t, seed in enumerate(seeds):
        x = SymbolVector(config.spec.x_alphabet, xs[t])
        code = None if code_seeds is None else code_seeds[t]
        one = simulate_session(x, jammer, config, seed, code)
        assert np.array_equal(one.x.symbols, xs[t])
        for name, want in session_oracle(x, jammer, config, seed, code).items():
            row = getattr(batch, name)[t]
            view = getattr(one, name)
            if isinstance(view, SymbolVector):
                view = view.symbols
            else:
                assert type(view) is type(want), name
            assert np.array_equal(row, want), (t, name)
            assert np.array_equal(view, want), (t, name)
    return batch


class TestSessionEngine:
    @pytest.mark.parametrize("kind", ["deterministic", "block", "memoryless"])
    @pytest.mark.parametrize("count", [1, SESSION_CHUNK - 1, SESSION_CHUNK, SESSION_CHUNK + 1])
    def test_matches_oracle(self, kind, count):
        config = _edge_config()
        n = 12
        xs = philox_stream(count, "xs").integers(0, 2, (count, n))
        seeds = [derive_seed(31, kind, t) for t in range(count)]
        _check_against_oracle(config, _jammer(kind, config.spec, n), xs, seeds)

    def test_pinned_codes_repeat_within_a_step(self):
        # three codes over 2 chunks and a bit, as ensemble members repeat
        config = _edge_config()
        count, n = 2 * SESSION_CHUNK + 3, 12
        xs = philox_stream(4, "xs").integers(0, 2, (count, n))
        seeds = [derive_seed(32, t) for t in range(count)]
        codes = [derive_seed(33, t % 3) for t in range(count)]
        batch = _check_against_oracle(config, _jammer("memoryless", config.spec, n), xs, seeds, codes)
        assert batch.code_seed == tuple(codes)

    def test_groups_over_the_symbol_budget_run_in_parts(self, monkeypatch):
        # a budget of two full (40-codeword) books per call at n = 12
        config = _edge_config()
        count, n = SESSION_CHUNK, 12
        budget = 2 * 40 * n
        monkeypatch.setattr(avrs.coding, "GROUP_SYMBOLS", budget)
        calls = []
        run_group = avrs.coding._run_group

        def recording(out, members, data, *rest):
            calls.append((len(members), data.num_codewords, data.t_y.key()))
            return run_group(out, members, data, *rest)

        monkeypatch.setattr(avrs.coding, "_run_group", recording)
        xs = philox_stream(5, "xs").integers(0, 2, (count, n))
        seeds = [derive_seed(35, t) for t in range(count)]
        codes = [derive_seed(36, t % 3) for t in range(count)]
        jam = _jammer("block", config.spec, n)
        simulate_sessions(xs, jam, config, seeds, codes)
        batched = list(calls)
        _check_against_oracle(config, jam, xs, seeds, codes)
        assert all(size == 1 or size * cws * n <= budget for size, cws, _ in batched)
        assert sum(size for size, _, _ in batched) == count
        assert max(Counter(key for _, _, key in batched).values()) > 1  # a group ran in parts

    def test_cases_reach_the_edge_geometries(self):
        seen = set()
        cases = ((_edge_config(), 12, 48), (_edge_config(delta2=0.05), 12, 17), (_readme_config(), 16, 64))
        for config, n, count in cases:
            xs = philox_stream(n, "xs").integers(0, 2, (count, n))
            seeds = [derive_seed(34, n, t) for t in range(count)]
            batch = _check_against_oracle(config, _jammer("deterministic", config.spec, n), xs, seeds)
            for t in range(count):
                data = config.family.type_data(empirical_type(SymbolVector(config.spec.y_alphabet, batch.y[t])))
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
            CodingParams(eps=1.7, delta2=0.2, gamma=0.2, f_eps=0.1, size_cap=4096),
        )
        jam = DeterministicJammer((0, 0), spec.j_alphabet)
        cdf = np.cumsum(spec.p_x.mass)
        cdf[-1] = 1.0
        rates, sigmas = [], []
        for n in (8, 16, 32):
            errors = good = 0
            for t in range(500):
                s = derive_seed(123, n, t)
                x = SymbolVector(
                    spec.x_alphabet,
                    np.searchsorted(cdf, philox_stream(s, "x").random(n), side="right"),
                )
                rep = simulate_session(x, jam, config, s)
                if rep.e_enc:
                    continue
                good += 1
                errors += 1 if (rep.e_dec1 or rep.e_dec2) else 0
            p = errors / good
            rates.append(p)
            sigmas.append(math.sqrt(p * (1 - p) / good))
        for a, b, sa, sb in zip(rates, rates[1:], sigmas, sigmas[1:]):
            assert b <= a + 3 * math.hypot(sa, sb), (rates, sigmas)


class TestMaxDistortion:
    def test_tiny_blocklength_diagnostic(self):
        spec = classical_spec(0.9)
        config = SessionConfig(spec, identity_policy(spec), CodingParams(eps=0.3))
        with pytest.raises(UsageError, match="typical"):
            sample_typical_sources(spec, 3, 0.01, 1, 0)
