import numpy as np
import pytest

from avrs.errors import NumericError, UsageError
from avrs.games import solve_bilinear_game
from avrs.mtypes import deterministic_maps


from oracles import matrix_game_value_oracle, vertex_expanded_matrix


class TestSolver:
    def test_matching_pennies(self):
        b = np.array([[1.0, -1.0], [-1.0, 1.0]])
        res = solve_bilinear_game(b, (2,), (2,))
        assert abs(res.value - 0.0) <= res.duality_gap + 1e-12
        assert res.duality_gap >= 0.0

    def test_one_by_k_exact(self):
        b = np.array([[0.3, 0.9, 0.1, 0.4]])
        res = solve_bilinear_game(b, (1,), (4,))
        assert res.value == 0.9

    def test_random_games_match_support_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            b = rng.random((3, 3))
            oracle = matrix_game_value_oracle(b)
            res = solve_bilinear_game(b, (3,), (3,))
            assert res.value == pytest.approx(oracle, abs=1e-12)

    @pytest.mark.parametrize("min_blocks,max_blocks", [((2, 2), (2, 2)), ((1, 3), (3,))])
    def test_mixed_sign_product_games_match_expanded_oracle(self, min_blocks, max_blocks):
        rng = np.random.default_rng(31)
        for _ in range(20):
            b = rng.uniform(-1.0, 1.0, size=(sum(min_blocks), sum(max_blocks)))
            oracle = matrix_game_value_oracle(vertex_expanded_matrix(b, min_blocks, max_blocks))
            res = solve_bilinear_game(b, min_blocks, max_blocks)
            assert res.value == pytest.approx(oracle, abs=1e-12)
            assert 0.0 <= res.duality_gap <= 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        b = rng.random((4, 6))
        res = solve_bilinear_game(b, (2, 2), (3, 3))
        # permute symbols inside each block on both sides
        perm_min = [1, 0, 3, 2]
        perm_max = [2, 0, 1, 5, 3, 4]
        b2 = b[np.ix_(perm_min, perm_max)]
        res2 = solve_bilinear_game(b2, (2, 2), (3, 3))
        assert abs(res.value - res2.value) <= res.duality_gap + res2.duality_gap + 1e-9

    def test_product_blocks_vertex_order(self):
        assert deterministic_maps(2, 2).tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]

    def test_strategies_are_simplex_points(self):
        rng = np.random.default_rng(9)
        b = rng.random((4, 4))
        res = solve_bilinear_game(b, (2, 2), (2, 2))
        for part in res.min_strategy + res.max_strategy:
            assert part.shape == (2,)
            assert part.sum() == pytest.approx(1.0)
            assert np.all(part >= 0)

    def test_non_finite_payoff_rejected(self):
        b = np.array([[np.nan, 1.0]])
        with pytest.raises(NumericError):
            solve_bilinear_game(b, (1,), (2,))

    def test_bad_blocks_rejected(self):
        with pytest.raises(UsageError):
            solve_bilinear_game(np.zeros((2, 2)), (3,), (2,))
        with pytest.raises(UsageError, match="size >= 1"):
            solve_bilinear_game(np.zeros((2, 2)), (2, 0), (2,))
