import random

import pytest
from hypothesis import given, strategies as st

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
