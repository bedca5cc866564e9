import hashlib
import json
import sys
from itertools import product
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from grhom import dynamics, graph
from grhom.corpus import random_primitive_graph
from grhom.dynamics import (SearchBudget, ShiftEquivalenceCertificate,
                            _intertwiners, _require_square,
                            characteristic_polynomial,
                            eventual_conjugacy_verdict, graph_invariants,
                            nonzero_spectrum_fingerprint,
                            search_shift_equivalence, verify_shift_equivalence)
from grhom.graded import dimension_triple
from grhom.graph import adjacency, graph_from_dict, graph_to_dict
from grhom.homology import Verdict, h0, h0_presentation
from grhom.intlinalg import (IntMatrix, _strong_components, mat_pow,
                             sparse_characteristic_polynomial)
from linalg_helpers import det, row_sum_two


def mat(rows):
    return IntMatrix.from_rows(rows)


def graph_of(a):
    """The graph with adjacency matrix a: vertices v0, v1, ..., and
    a_ij parallel edges from vi to vj."""
    names = ["v%d" % i for i in range(a.nrows)]
    return graph_from_dict({"vertices": names, "edges": [
        {"id": "e%d_%d_%d" % (i, j, k), "src": names[i], "dst": names[j]}
        for i, row in enumerate(a.rows) for j, x in enumerate(row)
        for k in range(x)]})


def permuted(g):
    """Same graph with the vertex list reversed; edges untouched."""
    d = graph_to_dict(g)
    d["vertices"] = list(reversed(d["vertices"]))
    return graph_from_dict(d)


A2 = mat([[2]])
A3 = mat([[3]])
FULL2 = mat([[1, 1], [1, 1]])


def reference_intertwiners(a, b, bound):
    """Brute force: every n x m matrix R with entries in [0, bound] and
    a R = R b, in colexicographic order of the row-major entry tuple (the
    last entry is the most significant)."""
    nrows, ncols = a.nrows, b.nrows
    out = []
    for tup in product(range(bound + 1), repeat=nrows * ncols):
        flat = tup[::-1]
        r = IntMatrix.from_rows(
            [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)], ncols)
        if a @ r == r @ b:
            out.append(r)
    return out


def reference_search(a, b, max_lag, entry_bound):
    """The certificate search over brute-force candidate lists; same loop
    order as ``search_shift_equivalence``."""
    r_valid = reference_intertwiners(a, b, entry_bound)
    s_valid = reference_intertwiners(b, a, entry_bound)
    for lag in range(1, max_lag + 1):
        al = mat_pow(a, lag)
        bl = mat_pow(b, lag)
        for s in s_valid:
            for r in r_valid:
                if r @ s == al and s @ r == bl:
                    return ShiftEquivalenceCertificate(r=r, s=s, lag=lag)
    return None


def reference_characteristic_polynomial(a: IntMatrix) -> tuple[int, ...]:
    """Monic characteristic polynomial det(tI - A), coefficients by
    descending degree, computed division-free over the integers except for
    the exact trace divisions of the Faddeev-LeVerrier recurrence."""
    _require_square(a, "A")
    n = a.nrows
    coeffs = [1]
    m = a
    for k in range(1, n + 1):
        tr = sum(row[i] for i, row in enumerate(m.rows))
        if tr % k:
            raise ArithmeticError("trace %d not divisible by %d" % (tr, k))
        c = -(tr // k)
        coeffs.append(c)
        if k < n:
            shifted = IntMatrix(tuple(row[:i] + (row[i] + c,) + row[i + 1:]
                                      for i, row in enumerate(m.rows)), n)
            m = a @ shifted
    return tuple(coeffs)


def permute(a, perm):
    """P A P^T for the permutation i -> perm[i], on nested lists."""
    n = len(a)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b[perm[i]][perm[j]] = a[i][j]
    return b


def shuffled(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def out_split(rng, a):
    """An out-splitting of ``a``: one vertex with at least two out-edges is
    split in two, its out-edges shared between the copies and its
    in-edges doubled."""
    n = len(a)
    v = rng.choice([i for i in range(n) if sum(a[i]) >= 2])
    edges = [j for j, x in enumerate(a[v]) for _ in range(x)]
    rng.shuffle(edges)
    cut = rng.randint(1, len(edges) - 1)
    b = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(n):
        if i != v:
            for j in range(n):
                b[i][j] += a[i][j]
                if j == v:
                    b[i][n] += a[i][j]
    for row, part in ((v, edges[:cut]), (n, edges[cut:])):
        for j in part:
            b[row][j] += 1
            if j == v:
                b[row][n] += 1
    return b


def in_split(rng, a):
    return [list(r) for r in zip(*out_split(rng, [list(r) for r in zip(*a)]))]


HARD_PAIRS = ((2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (2, 9),
              (3, 7), (5, 6))


def golden_cases():
    """Seeded (A, B, max_lag, entry_bound) inputs built as the benchmark's
    compare pairs are: vertex permutations, out- and in-splittings, and
    hard pairs that share spectrum and h0, plus the doubling map."""
    rng = Random(5)
    two, three, full = [[2]], [[3]], [[1, 1], [1, 1]]
    cases = [(two, full, 2, 2), (full, two, 2, 2), (two, full, 1, 0),
             (full, two, 2, 1), (full, full, 1, 2), (two, three, 2, 3)]
    # pairs whose first certificate has lag 2
    rot = [[0, 0, 0], [0, 0, 1], [1, 0, 1]]
    cases += [([[0, 0], [2, 0]], [[0, 0, 0], [0, 0, 0], [0, 1, 0]], 2, 1),
              ([[1]], rot, 2, 2), (rot, [[1]], 2, 2),
              ([[1, 0], [0, 0]], rot, 2, 1)]
    for _ in range(6):
        a = [[0] * 3 for _ in range(3)]
        looped = rng.randrange(3)
        for i in range(3):
            others = [j for j in range(3) if j != i]
            for j in (rng.sample(others, 1) + [i] if i == looped else others):
                a[i][j] = 1
        perm = shuffled(rng, 3)
        cases.append((a, permute(a, perm), 1, 1))
        a = [[rng.randint(0, 2) for _ in range(2)] for _ in range(2)]
        cases.append((a, permute(a, [1, 0]), 2, 2))
    for split in (out_split, in_split):
        for _ in range(2):
            a = permute([[1, 1, 0], [0, 1, 1], [1, 0, 0]], shuffled(rng, 3))
            cases.append((a, split(rng, a), 1, 1))
            a = [[rng.randint(1, 2), 1], [1, 0]]
            cases.append((a, split(rng, a), 1, 2))
    for j, k in HARD_PAIRS:
        cases.append((permute([[1, k], [j, 1]], shuffled(rng, 2)),
                      permute([[1, j * k], [1, 1]], shuffled(rng, 2)), 2, 4))
    for j, k in HARD_PAIRS[:3]:
        cases.append((
            permute([[1, k, 0], [j, 1, 0], [0, 0, 1]], shuffled(rng, 3)),
            permute([[1, j * k, 0], [1, 1, 0], [0, 0, 1]], shuffled(rng, 3)),
            2, 2))
    return [(mat(a), mat(b), lag, bound) for a, b, lag, bound in cases]


def square(n, entries=st.integers(0, 3)):
    return st.lists(st.lists(entries, min_size=n, max_size=n),
                    min_size=n, max_size=n).map(lambda rows: IntMatrix(
                        tuple(map(tuple, rows)), n))


@st.composite
def search_inputs(draw, cap=5000):
    """(A, B, entry_bound): n, m in 0..3, entries 0..3, and the bound at
    most 3 with (bound + 1)^(nm) <= cap. B is drawn at random, as a copy of
    A, as its transpose, or as A with its vertices permuted, so that many
    pairs have intertwiners beyond the zero matrix."""
    n = draw(st.integers(0, 3))
    a = draw(square(n))
    kind = draw(st.sampled_from(("random", "same", "transposed",
                                 "permuted")))
    if kind == "random":
        b = draw(square(draw(st.integers(0, 3))))
    elif kind == "same":
        b = a
    elif kind == "transposed":
        b = a.transpose()
    else:
        perm = draw(st.permutations(range(n)))
        b = IntMatrix(tuple(map(tuple, permute(
            [list(r) for r in a.rows], perm))), n)
    top = max(k for k in range(4) if (k + 1) ** (n * b.nrows) <= cap)
    return a, b, draw(st.integers(0, top))


class TestSearchMatchesReference:
    """The lattice-point enumeration against the brute-force filter over
    all bounded matrices: same candidates in the same order, so the same
    first certificate."""

    @settings(max_examples=150)
    @given(search_inputs())
    def test_intertwiners_match_reference(self, inputs):
        a, b, bound = inputs
        assert _intertwiners(a, b, bound) == reference_intertwiners(a, b,
                                                                    bound)

    @settings(max_examples=60)
    @given(search_inputs(cap=300), st.integers(1, 2))
    def test_search_matches_reference(self, inputs, max_lag):
        a, b, bound = inputs
        assert (search_shift_equivalence(a, b, max_lag, bound)
                == reference_search(a, b, max_lag, bound))

    def test_empty_shapes(self):
        empty = IntMatrix((), 0)
        three = mat([[1, 0, 2], [0, 1, 0], [3, 0, 0]])
        for other in (empty, A2, FULL2, three):
            for bound in (0, 2):
                for a, b in ((empty, other), (other, empty)):
                    found = _intertwiners(a, b, bound)
                    assert found == reference_intertwiners(a, b, bound)
                    assert [r.shape for r in found] == [(a.nrows, b.nrows)]
                    assert (search_shift_equivalence(a, b, 2, bound)
                            == reference_search(a, b, 2, bound))

    @pytest.mark.parametrize("a, b", [
        ([[1, 1], [0, 3]], [[3, 0], [1, 1]]),
        ([[2, 2], [3, 1]], [[2, 3], [2, 1]]),
        ([[1, 1], [0, 0]], [[1, 0, 3], [2, 3, 3], [0, 0, 0]]),
    ])
    def test_negative_lattice_coordinates(self, a, b):
        """Pairs with bounded solutions z K where some z_i < 0."""
        a, b = mat(a), mat(b)
        assert _intertwiners(a, b, 3) == reference_intertwiners(a, b, 3)

    def test_only_zero_intertwiner(self):
        assert _intertwiners(A2, A3, 3) == [IntMatrix.zeros(1, 1)]

    def test_every_matrix_intertwines_zero(self):
        zero = IntMatrix.zeros(2, 2)
        found = _intertwiners(zero, zero, 1)
        assert len(found) == 16
        assert found == reference_intertwiners(zero, zero, 1)


class TestVerify:
    def test_doubling_vs_full_shift(self):
        cert = ShiftEquivalenceCertificate(r=mat([[1, 1]]),
                                           s=mat([[1], [1]]), lag=1)
        assert verify_shift_equivalence(A2, FULL2, cert)

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, "2"])
    def test_non_int_lag_rejected(self, bad):
        with pytest.raises(ValueError, match="^lags must be ints"):
            ShiftEquivalenceCertificate(r=mat([[1, 1]]), s=mat([[1], [1]]),
                                        lag=bad)

    def test_wrong_r_rejected(self):
        cert = ShiftEquivalenceCertificate(r=mat([[1, 0]]),
                                           s=mat([[1], [1]]), lag=1)
        assert not verify_shift_equivalence(A2, FULL2, cert)

    def test_negative_entries_rejected(self):
        cert = ShiftEquivalenceCertificate(r=mat([[-1, -1]]),
                                           s=mat([[-1], [-1]]), lag=1)
        assert not verify_shift_equivalence(A2, FULL2, cert)

    def test_identity_pair_only_for_identity_matrix(self):
        one = mat([[1]])
        assert verify_shift_equivalence(
            one, one, ShiftEquivalenceCertificate(r=one, s=one, lag=1))
        ident = IntMatrix.identity(2)
        assert not verify_shift_equivalence(
            FULL2, FULL2,
            ShiftEquivalenceCertificate(r=ident, s=ident, lag=1))
        assert verify_shift_equivalence(
            FULL2, FULL2,
            ShiftEquivalenceCertificate(r=FULL2, s=ident, lag=1))

    def test_scalar_mismatch_never_verifies(self):
        for r in range(3):
            for s in range(3):
                for lag in (1, 2):
                    cert = ShiftEquivalenceCertificate(
                        r=mat([[r]]), s=mat([[s]]), lag=lag)
                    assert not verify_shift_equivalence(A2, A3, cert)

    def test_dimension_mismatch_raises(self):
        cert = ShiftEquivalenceCertificate(r=mat([[1], [1]]),
                                           s=mat([[1, 1]]), lag=1)
        with pytest.raises(ValueError):
            verify_shift_equivalence(A2, FULL2, cert)

    def test_lag_validation(self):
        with pytest.raises(ValueError):
            ShiftEquivalenceCertificate(r=mat([[1]]), s=mat([[1]]), lag=0)


class TestSearch:
    def test_finds_doubling_certificate(self):
        cert = search_shift_equivalence(A2, FULL2, max_lag=2, entry_bound=2)
        assert cert is not None
        assert cert.lag == 1
        assert cert.r.rows == ((1, 1),)
        assert cert.s.rows == ((1,), (1,))

    def test_distinct_scalars_not_found(self):
        assert search_shift_equivalence(A2, A3, max_lag=2,
                                        entry_bound=2) is None

    def test_identity_certificate_for_one(self):
        one = mat([[1]])
        cert = search_shift_equivalence(one, one, max_lag=2, entry_bound=2)
        assert cert is not None
        assert cert.lag == 1
        assert cert.r.rows == ((1,),)
        assert cert.s.rows == ((1,),)

    def test_deterministic(self):
        a = search_shift_equivalence(A2, FULL2, max_lag=2, entry_bound=2)
        b = search_shift_equivalence(A2, FULL2, max_lag=2, entry_bound=2)
        assert a == b

    def test_found_certificates_verify(self):
        for a, b in ((A2, FULL2), (FULL2, A2), (A2, A2)):
            cert = search_shift_equivalence(a, b, max_lag=2, entry_bound=2)
            if cert is not None:
                assert verify_shift_equivalence(a, b, cert)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            search_shift_equivalence(A2, A2, max_lag=0, entry_bound=2)
        with pytest.raises(ValueError):
            search_shift_equivalence(A2, A2, max_lag=1, entry_bound=-1)

    @pytest.mark.parametrize("bad", [2.5, 1.0, True, "2"])
    def test_non_int_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="^lags must be ints"):
            search_shift_equivalence(A2, FULL2, max_lag=bad, entry_bound=2)
        with pytest.raises(ValueError, match="^entry bounds must be ints"):
            search_shift_equivalence(A2, FULL2, max_lag=2, entry_bound=bad)

    def test_golden_certificates(self):
        """The first certificate depends on the candidate order, so a change
        of the enumeration must not move it. The hash was taken from the
        brute-force search over all bounded matrices."""
        cases = golden_cases()
        found = [search_shift_equivalence(*case) for case in cases]
        for (a, b, _, _), cert in zip(cases, found):
            assert cert is None or verify_shift_equivalence(a, b, cert)
        doc = json.dumps([c.to_dict() if c else None for c in found],
                         sort_keys=True)
        assert [c.lag if c else None for c in found] == (
            [1, 1, None, 1, 1, None] + [2] * 4 + [1] * 20 + [None] * 12)
        assert hashlib.sha256(doc.encode()).hexdigest() == \
            "8dc2323e494cb3638d15b892a5250ca76b5cc3b12edd02c2f5aef5d098b8840e"


class TestSpectrum:
    def test_golden_mean(self):
        assert characteristic_polynomial(mat([[1, 1], [1, 0]])) == (1, -1, -1)
        assert nonzero_spectrum_fingerprint(mat([[1, 1], [1, 0]])) == (
            1, -1, -1)

    def test_nilpotent_collapses(self):
        assert nonzero_spectrum_fingerprint(mat([[0, 1], [0, 0]])) == (1,)

    def test_scalar(self):
        assert nonzero_spectrum_fingerprint(A2) == (1, -2)

    def test_shift_equivalent_pair_agrees(self):
        assert (nonzero_spectrum_fingerprint(A2)
                == nonzero_spectrum_fingerprint(FULL2))

    def test_three_by_three(self):
        m = mat([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
        assert characteristic_polynomial(m) == (1, -3, 3, -3)

    def test_permutation_invariance(self):
        m = mat([[1, 2], [3, 4]])
        p = mat([[4, 3], [2, 1]])
        assert (nonzero_spectrum_fingerprint(m)
                == nonzero_spectrum_fingerprint(p))

    @staticmethod
    def agrees_with_determinant(a):
        """det(tI - a) by Bareiss at n + 4 points; a degree-n polynomial
        is fixed by any n + 1 of its values."""
        coeffs = characteristic_polynomial(a)
        n = a.nrows
        for t in range(-3, n + 1):
            shifted = IntMatrix(tuple(
                tuple((t if i == j else 0) - x for j, x in enumerate(row))
                for i, row in enumerate(a.rows)), n)
            assert sum(c * t ** (n - k) for k, c in enumerate(coeffs)) \
                == det(shifted)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_row_sum_two_agrees_with_determinant(self, n):
        self.agrees_with_determinant(row_sum_two(n, n))

    @pytest.mark.parametrize("n", [20, 40, 60, 80])
    def test_row_sum_two_matches_reference(self, n):
        a = row_sum_two(n, n)
        assert characteristic_polynomial(a) == \
            reference_characteristic_polynomial(a)

    def test_empty_and_one_by_one(self):
        assert characteristic_polynomial(IntMatrix((), 0)) == (1,)
        for x in (0, 1, -1, 7, -7, 10 ** 40, -10 ** 40):
            assert characteristic_polynomial(mat([[x]])) == (1, -x)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("rho", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_scalar_reaches_slot_bound(self, n, rho, sign):
        """(+-rho I)^n has the entries +-rho^n, the bound the slot width
        is taken from; det(tI - s I) = (t - s)^n."""
        s = sign * rho
        a = IntMatrix(tuple(tuple(s * (i == j) for j in range(n))
                            for i in range(n)), n)
        expect = tuple(comb(n, k) * (-s) ** k for k in range(n + 1))
        assert characteristic_polynomial(a) == expect
        assert reference_characteristic_polynomial(a) == expect

    @pytest.mark.parametrize("c", [-4, -3, -2, -1, 1, 2, 3, 4])
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_constant_matrix(self, n, c):
        """c J, every entry c: its row sums are |c| n and
        (c J)^k = c^k n^(k-1) J, so det(tI - c J) = t^(n-1) (t - c n)."""
        a = IntMatrix(((c,) * n,) * n, n)
        expect = (1, -c * n) + (0,) * (n - 1)
        assert characteristic_polynomial(a) == expect
        assert reference_characteristic_polynomial(a) == expect

    def test_nilpotent_with_huge_entries(self):
        """A strictly upper triangular matrix with entries up to 10^30,
        conjugated by a permutation: its powers reach 10^90 before A^4 = 0,
        and det(tI - A) = t^4."""
        big = 10 ** 30
        upper = [[0, big, -3, 1], [0, 0, -big, 5], [0, 0, 0, big],
                 [0, 0, 0, 0]]
        for rows in (upper, permute(upper, [2, 0, 3, 1])):
            a = mat(rows)
            assert characteristic_polynomial(a) == (1, 0, 0, 0, 0)
            assert reference_characteristic_polynomial(a) == (1, 0, 0, 0, 0)

    @given(st.data())
    def test_matches_reference(self, data):
        """n in 0..10 and entries in -9..9, with 0 and 1 drawn often so
        that the row products mix unscaled (x = 1) and scaled terms; a
        drawn set of rows and columns is then zeroed."""
        n = data.draw(st.integers(0, 10))
        a = [list(row) for row in data.draw(square(n, st.one_of(
            st.sampled_from((0, 1)), st.integers(-9, 9)))).rows]
        indices = st.sets(st.integers(0, n - 1)) if n else st.just(set())
        for i in data.draw(indices):
            a[i] = [0] * n
        for j in data.draw(indices):
            for row in a:
                row[j] = 0
        a = IntMatrix(tuple(map(tuple, a)), n)
        assert characteristic_polynomial(a) == \
            reference_characteristic_polynomial(a)

    @given(st.integers(0, 5).flatmap(
        lambda n: square(n, st.integers(-9, 9))))
    def test_small_agrees_with_determinant(self, a):
        self.agrees_with_determinant(a)

    @given(st.data())
    def test_nonnegative_heavy_matches_reference(self, data):
        """The unoffset path (A >= 0, packed rows with h = 0): n in 0..8,
        entries up to 10^6 with 0 and 1 drawn often, and a drawn set of
        rows zeroed, whose packed rows stay 0."""
        n = data.draw(st.integers(0, 8))
        a = [list(row) for row in data.draw(square(n, st.one_of(
            st.sampled_from((0, 1)), st.integers(0, 10 ** 6)))).rows]
        for i in data.draw(st.sets(st.integers(0, n - 1)) if n
                           else st.just(set())):
            a[i] = [0] * n
        a = IntMatrix(tuple(map(tuple, a)), n)
        assert characteristic_polynomial(a) == \
            reference_characteristic_polynomial(a)

    @pytest.mark.parametrize("seed", range(6))
    def test_signed_row_sum_one_matches_reference(self, seed):
        """The offset path with no correction: a signed matrix whose row
        sums are all 1, so Q'_i = sum_j A_ij Q_j exactly."""
        rng = Random(seed)
        n = 3 + 2 * seed
        rows = []
        for _ in range(n):
            row = [rng.randint(-5, 5) for _ in range(n - 1)]
            rows.append(row + [1 - sum(row)])
        rows[0][0] = -abs(rows[0][0]) - 1
        rows[0][-1] = 1 - sum(rows[0][:-1])
        a = mat(rows)
        assert all(sum(row) == 1 for row in a.rows)
        assert not a.is_nonneg()
        assert characteristic_polynomial(a) == \
            reference_characteristic_polynomial(a)

    def test_weighted_cycle(self):
        """A 60-cycle with one edge of weight 10^6: A^60 = 10^6 I and
        every shorter power has a zero diagonal, so det(tI - A) is
        t^60 - 10^6."""
        n = 60
        rows = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
        rows[n - 1][0] = 10 ** 6
        assert characteristic_polynomial(mat(rows)) == \
            (1,) + (0,) * (n - 1) + (-10 ** 6,)


@st.composite
def hidden_block_triangular(draw):
    """A signed block upper triangular matrix of size n <= 10 with its
    vertices listed in a drawn order. Diagonal blocks have 1-4 vertices,
    so trivial components occur with and without a loop; entries are in
    -9..9 with 0 and 1 drawn often; a drawn set of rows and of columns
    is then zeroed."""
    sizes, n = [], 0
    for size in draw(st.lists(st.integers(1, 4), max_size=6)):
        if n + size > 10:
            break
        sizes.append(size)
        n += size
    entry = st.one_of(st.sampled_from((0, 1)), st.integers(-9, 9))
    a = [[0] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for i in range(start, start + size):
            for j in range(start, n):
                a[i][j] = draw(entry)
        start += size
    indices = st.sets(st.integers(0, n - 1)) if n else st.just(set())
    for i in draw(indices):
        a[i] = [0] * n
    for j in draw(indices):
        for row in a:
            row[j] = 0
    return mat(permute(a, draw(st.permutations(range(n))))) if n else \
        IntMatrix((), 0)


def sparse_rows(a):
    return [[(j, x) for j, x in enumerate(row) if x] for row in a.rows]


class TestComponentProduct:
    """``characteristic_polynomial`` as the product over the strongly
    connected components of the nonzero pattern."""

    @settings(max_examples=300)
    @given(hidden_block_triangular())
    @example(IntMatrix((), 0))
    @example(mat([[0]]))
    @example(mat([[-7]]))
    @example(mat([[0, 5], [0, 0]]))
    @example(mat([[2, 0, 0], [0, 0, 0], [0, 0, 0]]))
    def test_block_triangular_matches_reference(self, a):
        expect = reference_characteristic_polynomial(a)
        assert characteristic_polynomial(a) == expect
        # the order of the nonzeros within a row does not matter
        rows = [row[::-1] for row in sparse_rows(a)]
        assert sparse_characteristic_polynomial(rows) == expect

    @given(st.integers(0, 9).flatmap(lambda n: st.lists(
        st.lists(st.integers(0, max(n - 1, 0)), max_size=4),
        min_size=n, max_size=n)))
    def test_components_are_mutual_reachability_classes(self, succ):
        """Against the transitive closure by Warshall's algorithm; the
        components partition the vertices, and no arc runs from a
        component to a later one."""
        n = len(succ)
        reach = [[i == j for j in range(n)] for i in range(n)]
        for v, ws in enumerate(succ):
            for w in ws:
                reach[v][w] = True
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    reach[i] = [x or y for x, y in zip(reach[i], reach[k])]
        classes = {frozenset(j for j in range(n) if reach[i][j]
                             and reach[j][i]) for i in range(n)}
        comps = _strong_components(succ)
        assert sorted(v for comp in comps for v in comp) == list(range(n))
        assert {frozenset(comp) for comp in comps} == classes
        position = {v: k for k, comp in enumerate(comps) for v in comp}
        assert all(position[w] <= position[v]
                   for v, ws in enumerate(succ) for w in ws)

    def test_long_path_needs_no_recursion(self):
        """A path of 3,000 vertices ending in a loop, deeper than the
        interpreter's recursion limit: every vertex is its own component,
        and det(tI - A) = t^2999 (t - 1)."""
        n = 3000
        assert n > sys.getrecursionlimit()
        rows = [((i + 1, 1),) for i in range(n - 1)] + [((n - 1, 1),)]
        comps = _strong_components([[j for j, _ in row] for row in rows])
        assert comps == [[v] for v in reversed(range(n))]
        assert sparse_characteristic_polynomial(rows) == \
            (1, -1) + (0,) * (n - 1)
        names = ["v%d" % i for i in range(n)]
        g = graph_from_dict({"vertices": names, "edges": [
            {"id": "e%d" % i, "src": names[i], "dst": names[min(i + 1, n - 1)]}
            for i in range(n)]})
        assert graph_invariants(g).spectrum == (1, -1)

    def test_off_block_weight_widens_no_slot(self):
        """An entry of 10^300 on no cycle: its matrix has the polynomial
        of its two loops, and neither block sees the entry."""
        a = mat([[1, 10 ** 300], [0, 2]])
        assert characteristic_polynomial(a) == (1, -3, 2)
        assert reference_characteristic_polynomial(a) == (1, -3, 2)

    @settings(max_examples=200)
    @given(st.integers(0, 7).flatmap(lambda n: square(n, st.integers(0, 3))))
    def test_graph_invariants_builds_no_dense_matrix(self, a):
        """On multigraphs with loops and parallel edges, listed in two
        vertex orders: ``graph_invariants`` never calls ``adjacency``, and
        its fingerprint is that of the dense matrix."""
        def spy(_):
            raise AssertionError("graph_invariants called adjacency")

        for g in (graph_of(a), permuted(graph_of(a))):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(dynamics, "adjacency", spy)
                patch.setattr(graph, "adjacency", spy)
                spectrum = graph_invariants(g).spectrum
            assert spectrum == nonzero_spectrum_fingerprint(adjacency(g))


class TestVerdictPipeline:
    @pytest.mark.parametrize("bad", [2.5, 1.5, True, "2"])
    def test_non_int_budget_rejected(self, bad):
        with pytest.raises(ValueError, match="^lags must be ints"):
            SearchBudget(max_lag=bad, entry_bound=1)
        with pytest.raises(ValueError, match="^entry bounds must be ints"):
            SearchBudget(max_lag=1, entry_bound=bad)

    def test_doubling_vs_full_shift(self, graph_f, full2):
        budget = SearchBudget(max_lag=2, entry_bound=2)
        rep = eventual_conjugacy_verdict(graph_f, full2, budget)
        assert rep.verdict == "EventuallyConjugate"
        assert verify_shift_equivalence(adjacency(graph_f), adjacency(full2),
                                        rep.certificate)

    def test_two_vs_three_loops(self, graph_f, triple_loop):
        budget = SearchBudget(max_lag=2, entry_bound=2)
        rep = eventual_conjugacy_verdict(graph_f, triple_loop, budget)
        assert rep.verdict == "Distinguished"
        assert rep.distinguished_by == "spectrum"
        assert rep.left.spectrum == (1, -2)
        assert rep.right.spectrum == (1, -3)

    def test_self_comparison(self, graph_e):
        budget = SearchBudget(max_lag=1, entry_bound=1)
        rep = eventual_conjugacy_verdict(graph_e, graph_e, budget)
        assert rep.verdict == "EventuallyConjugate"
        assert rep.certificate.lag == 1
        assert verify_shift_equivalence(adjacency(graph_e),
                                        adjacency(graph_e), rep.certificate)

    def test_unknown_echoes_budget(self, graph_f, full2):
        budget = SearchBudget(max_lag=1, entry_bound=0)
        rep = eventual_conjugacy_verdict(graph_f, full2, budget)
        assert rep.verdict == "Unknown"
        assert rep.certificate is None
        assert rep.budget == budget

    def test_preconditions(self, single_sink, weighted_loop, graph_f):
        budget = SearchBudget(max_lag=1, entry_bound=1)
        for bad in (single_sink, weighted_loop):
            with pytest.raises(ValueError, match="^first graph: "):
                eventual_conjugacy_verdict(bad, graph_f, budget)
            with pytest.raises(ValueError, match="^second graph: "):
                eventual_conjugacy_verdict(graph_f, bad, budget)

    def test_distinguished_stable_under_vertex_permutation(self, graph_e,
                                                           full2):
        budget = SearchBudget(max_lag=1, entry_bound=1)
        rep = eventual_conjugacy_verdict(graph_e, full2, budget)
        assert rep.verdict == "Distinguished"
        rep_p = eventual_conjugacy_verdict(permuted(graph_e),
                                           permuted(full2), budget)
        assert rep_p.verdict == "Distinguished"
        assert rep_p.distinguished_by == rep.distinguished_by

    def test_invariants_order_independent(self, graph_e, full2, triple_loop):
        for g in (graph_e, full2, triple_loop):
            assert graph_invariants(permuted(g)) == graph_invariants(g)
            assert graph_invariants(g).h0_group == h0(g)

    @staticmethod
    def builds_no_tracked_form(g):
        """graph_invariants(g) leaves no Smith decomposition on the
        presentation, and its group is h0(g), which does build one."""
        group = graph_invariants(g).h0_group
        pres = h0_presentation(g)
        assert "smith" not in vars(pres)
        assert group == h0(g)
        assert "smith" in vars(pres)

    @pytest.mark.parametrize("n", [20, 30, 40, 60])
    def test_compare_shapes_build_no_tracked_form(self, n):
        """The large compare shapes: every row sum 2, targets drawn with
        repetition, so loops and parallel edges occur."""
        loops = parallel = False
        for seed in range(4):
            a = row_sum_two(1000 * n + seed, n)
            loops |= any(a.rows[i][i] for i in range(n))
            parallel |= any(x == 2 for row in a.rows for x in row)
            self.builds_no_tracked_form(graph_of(a))
        assert loops and parallel

    def test_identification_columns_build_no_tracked_form(self,
                                                          seeded_graph):
        """Graphs with sinks and vertices of out-degree one, so that some
        relation columns are identifications e_v - e_w, which the
        untracked cokernel merges first."""
        for seed in range(12):
            g = seeded_graph(700 + seed, 10 + 5 * seed, sinks=bool(seed % 2))
            assert any(len(col) == 2 and sorted(x for _, x in col) == [-1, 1]
                       for col in h0_presentation(g).relation_columns)
            self.builds_no_tracked_form(g)

    def test_report_round_trips_json(self, graph_f, full2):
        budget = SearchBudget(max_lag=2, entry_bound=2)
        rep = eventual_conjugacy_verdict(graph_f, full2, budget)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["verdict"] == "EventuallyConjugate"
        assert doc["certificate"]["R"] == [["1", "1"]]
        assert doc["budget"] == {"max_lag": 2, "entry_bound": 2}


class TestConeConsistency:
    """A certificate's R intertwines the transposed adjacencies, so the map
    w -> R^T w must carry positive dimension-triple elements of the first
    shift to positive elements of the second."""

    def _check_cone(self, g1, g2, cert, samples, rng, cap=10):
        t1 = dimension_triple(g1)
        t2 = dimension_triple(g2)
        rt = cert.r.transpose()
        count = 0
        tries = 0
        while count < samples and tries < samples * 60:
            tries += 1
            vec = tuple(rng.randint(-4, 4) for _ in range(t1.rank))
            level = rng.randint(0, 4)
            elem = t1.element(vec, level)
            if t1.is_positive(elem, cap) is not Verdict.POSITIVE:
                continue
            image = t2.element(rt.apply(vec), level)
            assert t2.is_positive(image, cap) in (Verdict.POSITIVE,
                                                  Verdict.ZERO)
            count += 1
        assert count >= samples

    def test_found_certificate_preserves_cone(self, graph_f, full2):
        rng = Random(103)
        cert = search_shift_equivalence(adjacency(graph_f), adjacency(full2),
                                        max_lag=2, entry_bound=2)
        self._check_cone(graph_f, full2, cert, 100, rng)

    def test_self_certificates_preserve_cone(self):
        rng = Random(107)
        budget = SearchBudget(max_lag=1, entry_bound=1)
        for _ in range(3):
            g = random_primitive_graph(rng, 3, 6)
            rep = eventual_conjugacy_verdict(g, g, budget)
            assert rep.verdict == "EventuallyConjugate"
            self._check_cone(g, g, rep.certificate, 40, rng)

    def test_intertwining_equation(self, graph_f, full2):
        a = adjacency(graph_f)
        b = adjacency(full2)
        cert = search_shift_equivalence(a, b, max_lag=2, entry_bound=2)
        rt = cert.r.transpose()
        assert rt @ a.transpose() == b.transpose() @ rt
