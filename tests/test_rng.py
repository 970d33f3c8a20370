import numpy as np

from avrs.rng import philox_key, philox_stream, rekey, sample_indices, sample_rows


class TestSampleIndices:
    def test_block_equals_row_by_row_draws(self):
        # a (rows, n) block takes the uniforms of rows calls of random(n)
        # in order, so drawing a block at once keeps every symbol
        pmf = np.array([0.3, 0.0, 0.5, 0.2])
        cdf = np.cumsum(pmf)
        cdf[-1] = 1.0
        for rows, n in ((5, 7), (3, 1), (4, 16)):
            block = sample_indices(philox_stream(rows, n), pmf, (rows, n))
            gen = philox_stream(rows, n)
            expected = [np.searchsorted(cdf, gen.random(n), side="right") for _ in range(rows)]
            assert block.shape == (rows, n)
            assert np.array_equal(block, np.stack(expected))
            assert not (block == 1).any()


class TestSampleRows:
    def test_matches_per_row_searchsorted(self, rng):
        for k in (1, 2, 5):
            rows = rng.dirichlet(np.ones(k), size=40)
            if k > 1:
                rows[::3, 0] = 0.0  # zero-probability entries
                rows[1::3, -1] = 0.0
                rows /= rows.sum(axis=1, keepdims=True)
            got = sample_rows(philox_stream(k, "rows"), rows)
            u = philox_stream(k, "rows").random(rows.shape[0])
            expected = []
            for row, v in zip(rows, u):
                cdf = np.cumsum(row)
                cdf[-1] = 1.0
                expected.append(int(np.searchsorted(cdf, v, side="right")))
            assert got.tolist() == expected
            assert np.all(rows[np.arange(rows.shape[0]), got] > 0)

    def test_point_masses_and_draw_count(self):
        rows = np.eye(3)[[2, 0, 1, 1]]
        gen = philox_stream(7)
        assert sample_rows(gen, rows).tolist() == [2, 0, 1, 1]
        # one uniform per row is consumed
        ref = philox_stream(7)
        ref.random(4)
        assert gen.random() == ref.random()


class TestRekey:
    def test_draws_equal_a_fresh_stream(self):
        pick = np.random.default_rng(5)
        gen = philox_stream(0)
        # every pass after the first re-keys a generator left part-way
        # through a Philox block, some with a spare 32-bit word buffered
        for seed in pick.integers(0, 2**62, 1000).tolist():
            n = int(pick.integers(1, 40))
            k = int(pick.choice([2, 7, 2**31 + 5, 2**40]))
            fresh = philox_stream(seed, "rekey")
            assert rekey(gen, philox_key(seed, "rekey")) is gen
            assert np.array_equal(gen.random(n), fresh.random(n))
            assert gen.integers(k) == fresh.integers(k)
            spare = int(pick.integers(0, 3))
            assert np.array_equal(
                gen.integers(2**31, size=spare, dtype=np.uint32),
                fresh.integers(2**31, size=spare, dtype=np.uint32),
            )

    def test_integers_first(self):
        gen = philox_stream(0)
        gen.integers(9, size=3, dtype=np.uint32)
        for seed in range(50):
            fresh = philox_stream(seed)
            rekey(gen, philox_key(seed))
            assert gen.integers(1000) == fresh.integers(1000)
            assert np.array_equal(gen.random(5), fresh.random(5))
