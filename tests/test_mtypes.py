import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import avrs.mtypes
from avrs.errors import EnumerationTooLargeError, UsageError
from avrs.model import load_problem_spec
from avrs.mtypes import (
    TypeTable,
    compositions,
    consistent_kernels,
    is_typical,
    nearest_type,
    pair_counts,
    type_template,
    valid_jammer_types,
)

from conftest import (
    classical_spec,
    identity_z_spec,
    make_spec,
    structured_instance,
    wz_spec,
    xor_spec,
)
from oracles import jammer_types_oracle, jammer_types_reference


class TestEmpiricalType:
    # a block is 0-typical for exactly its own type, so these pin the type
    # that is_typical counts
    def test_half_half(self):
        x = np.array([0, 1, 1, 0])
        assert is_typical(x, np.array([0.5, 0.5]), 0.0)
        assert not is_typical(x, np.array([0.25, 0.75]), 0.2)

    def test_constant(self):
        x = np.array([1, 1, 1])
        assert is_typical(x, np.array([0.0, 1.0]), 0.0)
        assert not is_typical(x, np.array([0.1, 0.9]), 0.09)

    def test_hand_count_ternary(self):
        x = np.array([0, 0, 1, 2, 2, 2])
        assert is_typical(x, np.array([1 / 3, 1 / 6, 1 / 2]), 0.0)
        assert not is_typical(x, np.array([1 / 6, 1 / 3, 1 / 2]), 0.1)


class TestJointAndConditionalType:
    def test_pair_counts_against_counting(self, rng):
        for a_size, b_size, rows_n, n in ((3, 2, 5, 12), (2, 4, 1, 7), (4, 3, 9, 1)):
            rows = rng.integers(0, a_size, (rows_n, n))
            other = rng.integers(0, b_size, n)
            got = pair_counts(rows, other, a_size, b_size)
            brute = np.zeros((rows_n, a_size, b_size), dtype=int)
            for r in range(rows_n):
                for a, b in zip(rows[r], other):
                    brute[r, a, b] += 1
            assert np.array_equal(got, brute)


class TestTypicality:
    def test_exact_type_zero_eps(self):
        x = np.array([0, 1, 0, 1])
        assert is_typical(x, np.array([0.5, 0.5]), 0.0)

    def test_all_zeros_fails(self):
        x = np.zeros(10, dtype=int)
        assert not is_typical(x, np.array([0.5, 0.5]), 0.4)

    def test_against_exhaustive_deviation(self, rng):
        p = np.array([0.2, 0.3, 0.5])
        for _ in range(20):
            x = rng.integers(0, 3, 20)
            eps = float(rng.uniform(0, 0.5))
            dev = max(abs(np.mean(x == a) - p[a]) for a in range(3))
            assert is_typical(x, p, eps) == (dev <= eps + 1e-12)

    def test_block_outside_the_alphabet_refused(self):
        p = np.array([0.5, 0.5])
        for symbols in ([0, 1, 2, 1], [0, -1, 0, 1], [], [[0, 1], [1, 0]]):
            with pytest.raises(UsageError):
                is_typical(np.array(symbols, dtype=int), p, 0.5)


def _three_jammer_spec():
    """Binary source, |J| = 3: Y is X flipped at a jammer-chosen rate, Z blind."""
    k = np.zeros((2, 3, 2, 1))
    for x in range(2):
        for j, flip in enumerate((0.05, 0.2, 0.4)):
            k[x, j, x, 0] = 1 - flip
            k[x, j, 1 - x, 0] = flip
    return make_spec([0.3, 0.7], k, [[0, 1], [1, 0]])


ORACLE_SPECS = {
    "spec_binary": lambda: load_problem_spec(Path(__file__).parent / "data" / "spec_binary.json"),
    "classical": classical_spec,
    "xor": xor_spec,
    "wz": wz_spec,
    "identity_z": identity_z_spec,
    "structured_x3": lambda: structured_instance(np.random.default_rng(3), nx=3),
    "three_jammer_symbols": _three_jammer_spec,
}


def _oracle_tables(n: int, spec) -> np.ndarray:
    """The Fraction oracle's tables as floats, (M, |X|, |J|); float() of a
    Fraction rounds exactly as the float division of its terms."""
    oracle = jammer_types_oracle(n, spec.w.shape[0], spec.w.shape[1])
    return np.array([[[float(v) for v in row] for row in table] for table in oracle])


def _consistent(tables: np.ndarray, spec, t_y, f_eps: float) -> np.ndarray:
    """Oracle-side l-infinity filter on the induced Y-marginal."""
    marg = np.einsum("x,mxj,xjy->my", spec.p_x, tables, spec.w.sum(axis=3))
    return tables[np.abs(marg - t_y.probabilities).max(axis=1) <= f_eps + 1e-12]


def _keys(tables: np.ndarray) -> list:
    return [tuple(t.ravel().tolist()) for t in tables]


class TestEnumerateCondTypes:
    """A symbol absent from x^n has an unconstrained row; the enumeration
    fills it from the denominator-n grid and keeps each table once."""

    def test_wildcard_counts_once(self):
        # at n = 3 the row (1/3, 2/3) needs a symbol that takes all three
        # positions or none, so it pairs with every row of denominator 3,
        # each exactly once
        got = valid_jammer_types(TypeTable(np.array([2, 1]), 3), xor_spec(), 1.0, 3)
        third = [t for t in got.tolist() if t[0] == [1 / 3, 2 / 3]]
        assert len(third) == 4
        assert sorted(t[1][0] for t in third) == [0.0, 1 / 3, 2 / 3, 1.0]

    def test_completions_fill_wildcards(self):
        # at n = 2 the row (1/2, 1/2) for x = 1 forces counts (0, 2); the
        # unseen x = 0 row completes to (1, 0), (1/2, 1/2) and (0, 1)
        got = valid_jammer_types(TypeTable(np.array([1, 1]), 2), xor_spec(), 1.0, 2)
        assert np.isfinite(got).all()
        completed = [t[0] for t in got.tolist() if t[1] == [0.5, 0.5]]
        assert sorted(completed) == [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]


class TestValidJammerTypes:
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_matches_fraction_oracle(self, name):
        spec = ORACLE_SPECS[name]()
        p_y = np.einsum(
            "x,xy->y", spec.p_x, spec.w.sum(axis=3).mean(axis=1)
        )
        for n in range(1, 13):
            oracle = _oracle_tables(n, spec)
            t_y = nearest_type(p_y, n)
            for f_eps in (1.0, 0.1):
                got = _keys(valid_jammer_types(t_y, spec, f_eps, n))
                assert len(got) == len(set(got)), (name, n, "duplicate tables")
                expected = set(_keys(_consistent(oracle, spec, t_y, f_eps)))
                assert set(got) == expected, (name, n, f_eps)

    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_matches_all_splits_reference_in_order(self, name):
        # element for element and in the same order, not only as a set
        spec = ORACLE_SPECS[name]()
        x_size, j_size, y_size = spec.w.shape[:3]
        for n in range(1, 13):
            reference = jammer_types_reference(n, x_size, j_size)
            t_y = nearest_type(np.full(y_size, 1 / y_size), n)
            for f_eps in (1.0, 0.1, 0.0):
                expected = reference[consistent_kernels(reference, t_y, spec, f_eps)]
                got = valid_jammer_types(t_y, spec, f_eps, n)
                assert got.shape == expected.shape, (name, n, f_eps)
                assert np.array_equal(got, expected), (name, n, f_eps)

    def test_f_eps_one_accepts_everything(self):
        spec = xor_spec()
        n = 4
        t_y = TypeTable(np.array([2, 2]), n)
        everything = valid_jammer_types(t_y, spec, 1.0, n)
        assert set(_keys(everything)) == set(_keys(_oracle_tables(n, spec)))

    def test_single_j(self):
        spec = classical_spec()
        for n in (1, 4, 7):
            got = valid_jammer_types(TypeTable(np.array([n, 0]), n), spec, 1.0, n)
            assert got.shape == (1, 2, 1)
            assert np.array_equal(got[0], np.ones((2, 1)))

    def test_two_symbols_hand_enumeration(self):
        # n = 2: every row of each table lies on {0, 1/2, 1}, and any pair of
        # such rows is realized by the split (0, 2) or (2, 0)
        got = valid_jammer_types(TypeTable(np.array([1, 1]), 2), xor_spec(), 1.0, 2)
        rows = [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
        assert set(_keys(got)) == {a + b for a in rows for b in rows}

    def test_identity_channel_threshold(self):
        # Y = X regardless of J: marginal is P_X for every jammer type
        k = np.zeros((2, 2, 2, 1))
        for x in range(2):
            for j in range(2):
                k[x, j, x, 0] = 1.0
        spec = make_spec([0.5, 0.5], k, [[0, 1], [1, 0]])
        n = 6
        t_y = TypeTable(np.array([4, 2]), n)
        gap = abs(4 / 6 - 0.5)
        none = valid_jammer_types(t_y, spec, gap - 0.05, n)
        all_of_them = valid_jammer_types(t_y, spec, gap + 0.01, n)
        assert none.shape == (0, 2, 2)
        assert len(all_of_them) == len(jammer_types_oracle(n, 2, 2))

    def test_xor_membership_against_marginal_oracle(self):
        spec = xor_spec()
        n = 8
        t_y = TypeTable(np.array([5, 3]), n)
        f_eps = 0.2
        got = set(_keys(valid_jammer_types(t_y, spec, f_eps, n)))
        checked = set(_keys(_consistent(_oracle_tables(n, spec), spec, t_y, f_eps)))
        assert got == checked

    def test_monotone_in_f_eps(self):
        spec = xor_spec()
        t_y = TypeTable(np.array([5, 3]), 8)
        small = set(_keys(valid_jammer_types(t_y, spec, 0.1, 8)))
        large = set(_keys(valid_jammer_types(t_y, spec, 0.3, 8)))
        assert small <= large

    @pytest.mark.parametrize("n", [1, 4, 6, 9])
    @pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
    def test_guard_raises_exactly_above_the_limit(self, monkeypatch, name, n):
        # the guard counts the tables before building any, so its count must
        # be exact: the limit at the count passes and one below it raises
        spec = ORACLE_SPECS[name]()
        x_size, j_size, y_size = spec.w.shape[:3]
        t_y = nearest_type(np.full(y_size, 1 / y_size), n)
        total = len(jammer_types_oracle(n, x_size, j_size))
        monkeypatch.setattr(avrs.mtypes, "MAX_JAMMER_TYPES", total)
        assert len(valid_jammer_types(t_y, spec, 1.0, n)) == total
        monkeypatch.setattr(avrs.mtypes, "MAX_JAMMER_TYPES", total - 1)
        with pytest.raises(EnumerationTooLargeError):
            valid_jammer_types(t_y, spec, 1.0, n)
        # the filter never hides an oversized enumeration
        with pytest.raises(EnumerationTooLargeError):
            valid_jammer_types(t_y, spec, 0.0, n)


class TestProperties:
    @given(st.lists(st.integers(0, 2), min_size=1, max_size=30))
    @settings(max_examples=80, deadline=None)
    def test_entries_are_integer_multiples(self, symbols):
        t = TypeTable(np.bincount(symbols, minlength=3), len(symbols))
        assert int(t.counts.sum()) == len(symbols)
        # probabilities are exact ratios of the stored integers
        assert np.allclose(t.probabilities * t.n, t.counts, atol=0)

    def test_type_count_bound(self):
        for n in range(1, 11):
            count = sum(1 for _ in compositions(n, 2))
            assert count <= (n + 1) ** 2
        for n in range(1, 8):
            count = sum(1 for _ in compositions(n, 3))
            assert count <= (n + 1) ** 3

    @given(
        st.integers(0, 9),
        st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=4),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_compositions_against_product_filter(self, total, bounds):
        lo = [b[0] for b in bounds]
        hi = [b[1] for b in bounds]
        expected = [
            combo
            for combo in itertools.product(range(total + 1), repeat=len(bounds))
            if sum(combo) == total and all(a <= c <= b for a, c, b in zip(lo, combo, hi))
        ]
        assert list(compositions(total, len(bounds), lo, hi)) == expected

    def test_nearest_type_and_template(self):
        p = np.array([0.21, 0.33, 0.46])
        t = nearest_type(p, 10)
        assert int(t.counts.sum()) == 10
        assert np.abs(t.probabilities - p).max() <= 0.1
        template = type_template(t)
        assert np.array_equal(
            np.bincount(template, minlength=3), t.counts
        )
