import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avrs.errors import ConfigurationError
from avrs.probability import checked_table, entropy_bits, mutual_information_bits

from oracles import conditional_mutual_information_bits


def h2(p: float) -> float:
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


class TestConstruction:
    """``checked_table``, the one check every input table passes."""

    def test_distribution_rejects_bad_sum(self):
        with pytest.raises(ConfigurationError, match="sums to 1.1"):
            checked_table([0.5, 0.6], "p_x", 1, (0,))

    def test_distribution_rejects_negative(self):
        with pytest.raises(ConfigurationError, match="negative"):
            checked_table([-0.1, 1.1], "p_x", 1, (0,))

    def test_conditional_rows_validated(self):
        with pytest.raises(ConfigurationError, match=r"q at \(1,\) sums to 1.1"):
            checked_table([[0.5, 0.5], [0.9, 0.2]], "q", 2, (1,))

    def test_channel_slice_validated(self):
        k = np.zeros((2, 2, 2, 1))
        k[:, :, 0, 0] = 1.0
        k[1, 0, 0, 0] = 0.9
        with pytest.raises(ConfigurationError, match=r"w at \(1, 0\) sums to 0.9"):
            checked_table(k, "w", 4, (2, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN fails neither "< 0" nor "|sum - 1| > tol", so it needs its own test
        with pytest.raises(ConfigurationError, match="non-finite"):
            checked_table([bad, 0.5], "p_x", 1, (0,))
        with pytest.raises(ConfigurationError, match="non-finite"):
            checked_table([[0.0, bad]], "d", 2)

    @pytest.mark.parametrize(
        "values, ndim",
        [([0.5, 0.5], 2), ([[1.0], [1.0]], 1), ([], 1), ([[], []], 2), ([[1.0], [0.5, 0.5]], 2), ("ab", 1)],
    )
    def test_shape_and_type_rejected(self, values, ndim):
        with pytest.raises(ConfigurationError, match="shape|numeric"):
            checked_table(values, "t", ndim)

    def test_table_without_pmf_axes_needs_no_sum(self):
        d = checked_table([[0, 0.25], [2.5, 0]], "d", 2)
        assert d.dtype == np.float64 and d.flags.c_contiguous
        assert d.tolist() == [[0.0, 0.25], [2.5, 0.0]]

    def test_joint_immutable(self):
        # the result is a read-only copy; the caller's array stays writable
        k = np.full((2, 2, 2, 1), 0.5)
        held = checked_table(k, "w", 4, (2, 3))
        with pytest.raises(ValueError):
            held[0, 0, 0, 0] = 1.0
        k[0, 0, 0, 0] = 1.0
        assert held[0, 0, 0, 0] == 0.5


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0)

    def test_point_mass(self):
        assert entropy_bits([1.0, 0.0]) == 0.0

    def test_quarter(self):
        # closed form: 2 - 0.75 log2(3)
        assert entropy_bits([0.25, 0.75]) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_batched_axes(self):
        rows = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
        assert np.allclose(entropy_bits(rows, axis=-1), [1.0, 0.0, 0.8112781244591328])
        assert entropy_bits(rows.reshape(1, 3, 2) / 3, axis=(-2, -1)).shape == (1,)

    @pytest.mark.parametrize("axis", [None, -1, (-2, -1), (0, 2)])
    def test_bit_equal_to_masked_product(self, rng, axis):
        # the plain form of 0 log 0 = 0; every result must keep its bits
        m = rng.dirichlet(np.ones(4), size=(6, 5))
        m[rng.random(m.shape) < 0.3] = 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(m > 0, m * np.log2(np.where(m > 0, m, 1.0)), 0.0)
        expected = -t.sum(axis=axis)
        got = entropy_bits(m, axis=axis)
        assert np.array_equal(got, expected)
        assert not np.isnan(got).any()

    def test_bit_equal_on_a_transposed_view(self, rng):
        # the rate tables sum over strided views; the summation order follows
        # the memory layout, so the kernel must keep the layout of its input
        m = rng.dirichlet(np.ones(8), size=(5, 40)).reshape(5, 2, 2, 2, 40)
        m[rng.random(m.shape) < 0.2] = 0.0
        view = m.transpose(0, 4, 2, 1, 3)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(view > 0, view * np.log2(np.where(view > 0, view, 1.0)), 0.0)
        for axis in ((-3, -2, -1), (-2, -1)):
            assert np.array_equal(entropy_bits(view, axis=axis), -t.sum(axis=axis))

    def test_zero_dim_input(self):
        assert entropy_bits(np.float64(0.25)) == 0.5
        assert entropy_bits(0.0) == 0.0


def bsc_joint_xy(flip: float) -> np.ndarray:
    """p(x, y) for a uniform bit read through a binary symmetric channel."""
    return 0.5 * np.array([[1 - flip, flip], [flip, 1 - flip]])


class TestMutualInformation:
    def test_independent(self):
        mass = np.outer([0.3, 0.7], [0.6, 0.4])
        assert mutual_information_bits(mass) == pytest.approx(0.0, abs=1e-12)

    def test_identical_uniform(self):
        assert mutual_information_bits(np.diag([0.5, 0.5])) == pytest.approx(1.0)

    def test_bsc_closed_form(self):
        got = mutual_information_bits(bsc_joint_xy(0.1))
        assert got == pytest.approx(1.0 - h2(0.1), abs=1e-12)
        assert got == pytest.approx(0.5310044064107187, abs=1e-12)

    def test_conditioning_variable(self):
        # conditioned on a constant C nothing changes: I(X;Y|C) = I(X;Y)
        joint = bsc_joint_xy(0.1)[:, :, None]
        assert conditional_mutual_information_bits(joint) == pytest.approx(
            mutual_information_bits(bsc_joint_xy(0.1)), abs=1e-12
        )

    def test_batched_against_per_table(self, rng):
        tables = rng.dirichlet(np.ones(12), size=(4, 5)).reshape(4, 5, 2, 3, 2)
        cmi = conditional_mutual_information_bits(tables)
        mi = mutual_information_bits(tables.sum(axis=-1))
        assert cmi.shape == mi.shape == (4, 5)
        for a in range(4):
            for b in range(5):
                single = conditional_mutual_information_bits(tables[a, b])
                assert cmi[a, b] == pytest.approx(single, abs=1e-12)
                single = mutual_information_bits(tables[a, b].sum(axis=-1))
                assert mi[a, b] == pytest.approx(single, abs=1e-12)

    def test_cmi_against_conditional_average(self, rng):
        # I(A;B|C) = sum_c p(c) I(A;B | C=c)
        for _ in range(20):
            p = rng.dirichlet(np.ones(18)).reshape(3, 2, 3)
            p_c = p.sum(axis=(0, 1))
            expected = sum(
                p_c[c] * mutual_information_bits(p[:, :, c] / p_c[c]) for c in range(3)
            )
            assert conditional_mutual_information_bits(p) == pytest.approx(expected, abs=1e-12)


class TestProperties:
    @given(
        st.floats(0.0, 1.0),
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
        st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_entropy_concave_under_mixing(self, lam, raw_p, raw_q):
        p = np.array(raw_p) / np.sum(raw_p)
        q = np.array(raw_q) / np.sum(raw_q)
        mix = lam * p + (1 - lam) * q
        h_mix = entropy_bits(mix / mix.sum())
        h_sep = lam * entropy_bits(p) + (1 - lam) * entropy_bits(q)
        assert h_mix >= h_sep - 1e-9

    def test_cmi_bounds_on_random_joints(self, rng):
        for _ in range(50):
            mass = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
            i = conditional_mutual_information_bits(mass)
            h_c = entropy_bits(mass.sum(axis=(0, 1)))
            h_a_c = entropy_bits(mass.sum(axis=1)) - h_c
            h_b_c = entropy_bits(mass.sum(axis=0)) - h_c
            assert i >= 0.0
            assert i <= min(h_a_c, h_b_c) + 1e-9
