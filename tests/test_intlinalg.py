import random

import pytest
from hypothesis import given, strategies as st

from grhom import homology
from grhom.graph import graph_from_dict
from grhom.intlinalg import (FpAbelianGroup, IntMatrix, cokernel, det,
                             eventual_kernel, hermite_row_basis,
                             in_column_span, invariant_factors, kernel_basis,
                             mat_pow, mat_pow_apply, smith_normal_form)


def mat(rows, ncols=None):
    return IntMatrix.from_rows(rows, ncols)


def small_matrix(max_dim=4, max_entry=9):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.integers(1, max_dim).flatmap(
            lambda m: st.lists(
                st.lists(st.integers(-max_entry, max_entry),
                         min_size=m, max_size=m),
                min_size=n, max_size=n).map(lambda rows: mat(rows))))


def sparse_matrix(max_dim=12):
    """Mostly-zero matrices with entries in -2..2, up to max_dim x max_dim
    (either side may be 0), with some rows and columns zeroed out."""
    entry = st.sampled_from((0,) * 8 + (-2, -1, -1, 1, 1, 2))
    return st.integers(0, max_dim).flatmap(
        lambda m: st.integers(0, max_dim).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m),
                st.sets(st.integers(0, max_dim - 1), max_size=3),
                st.sets(st.integers(0, max_dim - 1), max_size=3),
            ).map(lambda t: IntMatrix(
                tuple(tuple(0 if i in t[1] or j in t[2] else x
                            for j, x in enumerate(row))
                      for i, row in enumerate(t[0])), n))))


def square_matrix(max_dim=4, max_entry=6):
    return st.integers(1, max_dim).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-max_entry, max_entry),
                     min_size=n, max_size=n),
            min_size=n, max_size=n).map(lambda rows: mat(rows)))


class TestIntMatrix:
    def test_shape_and_entries(self):
        a = mat([[1, 2], [3, 4], [5, 6]])
        assert a.shape == (3, 2)
        assert a.entry(2, 1) == 6
        assert a.transpose().rows == ((1, 3, 5), (2, 4, 6))
        assert a.transpose().transpose() == a

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            mat([[1, 2], [3]])

    def test_zero_row_shapes(self):
        a = IntMatrix((), 3)
        assert a.shape == (0, 3)
        assert a.transpose().shape == (3, 0)
        assert (a.transpose() @ a).shape == (3, 3)

    def test_matmul(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert (a @ b).rows == ((2, 1), (4, 3))
        assert (a @ IntMatrix.identity(2)) == a

    def test_apply(self):
        a = mat([[1, 1], [1, 0]])
        assert a.apply((1, 0)) == (1, 1)

    def test_is_nonneg(self):
        assert mat([[0, 1], [2, 3]]).is_nonneg()
        assert not mat([[0, -1]]).is_nonneg()

    def test_entry_types(self):
        with pytest.raises(ValueError, match="must be ints"):
            IntMatrix(((True,),), 1)
        with pytest.raises(ValueError, match="must be ints"):
            IntMatrix(((1, 2.0),), 2)

        class Tagged(int):
            pass

        assert IntMatrix(((Tagged(3), 4),), 2).entry(0, 0) == 3


class TestSmithNormalForm:
    def test_diag_2_3(self):
        dec = smith_normal_form(mat([[2, 0], [0, 3]]))
        assert dec.factors == (1, 6)

    def test_zero_matrix(self):
        assert smith_normal_form(mat([[0]])).factors == (0,)

    def test_unit(self):
        assert smith_normal_form(mat([[-1]])).factors == (1,)

    def test_factors_nonnegative_and_divisible(self):
        dec = smith_normal_form(mat([[4, 6], [8, 10], [12, 18]]))
        nz = [d for d in dec.factors if d]
        assert all(d >= 0 for d in dec.factors)
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0

    @given(small_matrix())
    def test_uav_equals_s(self, a):
        dec = smith_normal_form(a)
        s = dec.u @ a @ dec.v
        assert s == dec.s
        assert det(dec.u) in (1, -1)
        assert det(dec.v) in (1, -1)
        for i in range(s.nrows):
            for j in range(s.ncols):
                if i != j:
                    assert s.entry(i, j) == 0

    @given(small_matrix())
    def test_invariant_factors_shortcut_agrees(self, a):
        assert invariant_factors(a) == smith_normal_form(a).factors


class TestSparseUnitElimination:
    """invariant_factors (unit pivots, then dense core) against the
    dense smith_normal_form."""

    @given(sparse_matrix())
    def test_sparse_agrees_with_dense(self, a):
        assert invariant_factors(a) == smith_normal_form(a).factors

    @given(small_matrix(max_dim=8, max_entry=1))
    def test_unit_heavy_agrees_with_dense(self, a):
        assert invariant_factors(a) == smith_normal_form(a).factors

    def test_empty_shapes_and_zero_matrix(self):
        assert invariant_factors(IntMatrix((), 3)) == ()
        assert invariant_factors(IntMatrix(((), (), ()), 0)) == ()
        assert invariant_factors(IntMatrix.zeros(3, 4)) == (0, 0, 0)

    def test_no_unit_goes_to_core(self):
        a = mat([[2, 4], [6, 8]])
        assert invariant_factors(a) == smith_normal_form(a).factors == (2, 4)

    def test_unit_pivot_leaves_non_unit_fill(self):
        # pivot 1 turns the 4 into 4 - 3 * 2 = -2
        a = mat([[1, 2], [3, 4]])
        assert invariant_factors(a) == smith_normal_form(a).factors == (1, 2)

    def test_oracle_matrix_agrees_with_dense(self, monkeypatch):
        vs = ["v%d" % i for i in range(5)]
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3),
                 (2, 4), (3, 0), (4, 1), (0, 0), (2, 2)]
        g = graph_from_dict({
            "vertices": vs,
            "edges": [{"id": "e%d" % k, "src": vs[i], "dst": vs[j]}
                      for k, (i, j) in enumerate(pairs)]})
        seen = []

        def capture(a):
            seen.append(a)
            return cokernel(a)

        monkeypatch.setattr(homology, "cokernel", capture)
        group = homology.h0_bruteforce_oracle(g, 4)
        (a,) = seen
        assert a.nrows >= 200
        assert invariant_factors(a) == smith_normal_form(a).factors
        assert group == homology.h0(g)


class TestCokernel:
    def test_unimodular_relations(self):
        assert cokernel(mat([[0, -1], [-1, 1]])) == FpAbelianGroup(0, ())

    def test_z2(self):
        assert cokernel(mat([[2]])) == FpAbelianGroup(0, (2,))

    def test_no_relations(self):
        assert cokernel(IntMatrix((), 0)) == FpAbelianGroup(0, ())
        two_by_zero = IntMatrix(((), ()), 0)
        assert cokernel(two_by_zero) == FpAbelianGroup(2, ())

    def test_describe(self):
        assert FpAbelianGroup(0, ()).describe() == "0"
        assert FpAbelianGroup(1, ()).describe() == "Z"
        assert FpAbelianGroup(2, (2, 4)).describe() == "Z^2 x Z/2 x Z/4"

    @given(small_matrix(max_dim=4, max_entry=5), st.randoms(use_true_random=False))
    def test_invariant_under_column_moves(self, a, rng):
        cols = [list(col) for col in zip(*a.rows)] if a.rows else []
        base = cokernel(a)
        for _ in range(6):
            move = rng.randrange(3)
            if len(cols) < 1:
                break
            i = rng.randrange(len(cols))
            j = rng.randrange(len(cols))
            if move == 0:
                cols[i], cols[j] = cols[j], cols[i]
            elif move == 1:
                cols[i] = [-x for x in cols[i]]
            elif i != j:
                cols[i] = [x + y for x, y in zip(cols[i], cols[j])]
            moved = IntMatrix(tuple(tuple(c[k] for c in cols)
                                    for k in range(a.nrows)), len(cols))
            assert cokernel(moved) == base


class TestKernels:
    def test_nilpotent_eventual_kernel_is_everything(self):
        basis = eventual_kernel(mat([[0, 1], [0, 0]]))
        assert basis.rows == ((1, 0), (0, 1))

    def test_identity_injective(self):
        assert eventual_kernel(IntMatrix.identity(3)).nrows == 0

    def test_doubling_injective(self):
        assert eventual_kernel(mat([[2]])).nrows == 0

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eventual_kernel(mat([[1, 2]]))

    def test_kernel_vectors_annihilate(self):
        a = mat([[1, 2, 3], [2, 4, 6]])
        basis = kernel_basis(a)
        assert basis.nrows == 2
        for row in basis.rows:
            assert all(x == 0 for x in a.apply(row))

    @given(square_matrix(max_dim=4, max_entry=4))
    def test_eventual_kernel_matches_stabilization_detection(self, a):
        # independent route: grow powers until the kernel stops changing
        power = a
        prev = kernel_basis(power)
        while True:
            power = power @ a
            cur = kernel_basis(power)
            if cur == prev:
                break
            prev = cur
        assert eventual_kernel(a) == prev

    @given(square_matrix(max_dim=4, max_entry=4))
    def test_eventual_kernel_invariant_under_a(self, a):
        basis = eventual_kernel(a)
        if basis.nrows == 0:
            return
        lattice_rows = basis.rows
        for row in lattice_rows:
            image = a.apply(row)
            again = hermite_row_basis(lattice_rows + (image,), a.ncols)
            assert again == basis


class TestHermite:
    def test_canonical_under_row_moves(self):
        rows = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
        h1 = hermite_row_basis(rows, 3)
        shuffled = (rows[2], tuple(-x for x in rows[0]),
                    tuple(x + y for x, y in zip(rows[1], rows[2])), rows[1])
        h2 = hermite_row_basis(shuffled, 3)
        assert h1 == h2

    def test_pivots_positive_and_reduced(self):
        h = hermite_row_basis(((0, 3), (2, 5)), 2)
        pivots = []
        for row in h.rows:
            lead = next(j for j, x in enumerate(row) if x)
            assert row[lead] > 0
            pivots.append((lead, row[lead]))
        for idx, row in enumerate(h.rows):
            for lead, p in pivots[idx + 1:]:
                assert 0 <= row[lead] < p


class TestPowersAndSpan:
    def test_scalar_power(self):
        assert mat_pow_apply(mat([[2]]), (3,), 4) == (48,)

    def test_power_zero_is_identity_for_any_shape(self):
        assert mat_pow_apply(mat([[1, 2]]), (7, 9), 0) == (7, 9)

    def test_fibonacci(self):
        assert mat_pow_apply(mat([[1, 1], [1, 0]]), (1, 0), 5) == (8, 5)

    @given(square_matrix(max_dim=3, max_entry=3), st.integers(0, 6))
    def test_mat_pow_matches_repeated_product(self, a, k):
        expected = IntMatrix.identity(a.nrows)
        for _ in range(k):
            expected = expected @ a
        assert mat_pow(a, k) == expected

    def test_in_column_span(self):
        a = mat([[2, 0], [0, 3]])
        assert in_column_span(a, (4, 3))
        assert not in_column_span(a, (1, 0))
        assert in_column_span(a, (0, 0))

    @given(small_matrix(max_dim=4, max_entry=4),
           st.lists(st.integers(-3, 3), min_size=4, max_size=4))
    def test_span_membership_of_actual_combinations(self, a, coeffs):
        x = coeffs[:a.ncols] + [0] * max(0, a.ncols - len(coeffs))
        v = tuple(sum(a.entry(i, j) * x[j] for j in range(a.ncols))
                  for i in range(a.nrows))
        assert in_column_span(a, v)


class TestDet:
    def test_known(self):
        assert det(mat([[1, 1], [1, 0]])) == -1
        assert det(mat([[2, 0], [0, 3]])) == 6
        assert det(IntMatrix.identity(4)) == 1

    @given(square_matrix(max_dim=4, max_entry=4))
    def test_det_multiplicative(self, a):
        assert det(a @ a) == det(a) ** 2


class TestGroupFromFactors:
    def test_units_dropped_zeros_counted(self):
        g = cokernel(mat([[1, 0], [0, 2], [0, 0], [0, 0]]))
        assert g == FpAbelianGroup(2, (2,))

    def test_validation(self):
        with pytest.raises(ValueError):
            FpAbelianGroup(0, (3, 2))
