import numpy as np

from avrs.rng import philox_stream, sample_rows


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
