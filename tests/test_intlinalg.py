import re
from random import Random

import pytest
from hypothesis import given, strategies as st

from grhom import homology, intlinalg
from grhom.graph import graph_from_dict
from grhom.intlinalg import (FpAbelianGroup, IntMatrix, cokernel,
                             eventual_kernel, hermite_row_basis,
                             invariant_factors, kernel_basis, mat_pow,
                             mat_pow_apply, smith_normal_form,
                             sparse_cokernel, sparse_smith_normal_form)
from linalg_helpers import (det, full_power_eventual_kernel, full_u,
                            in_column_span, row_sum_two)


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


def reference_find_pivot(s, t, m, n):
    """Smallest-absolute-value nonzero entry of s[t:, t:], row-major tie-break."""
    best = None
    bi = bj = -1
    for i in range(t, m):
        row = s[i]
        for j in range(t, n):
            x = row[j]
            if x:
                ax = -x if x < 0 else x
                if best is None or ax < best:
                    best, bi, bj = ax, i, j
                    if best == 1:
                        return bi, bj
    return None if best is None else (bi, bj)


def reference_diagonalize(a: IntMatrix, track: bool):
    """The plain dense Smith elimination that ``smith_normal_form`` must match
    exactly; returns (diag rows, u rows, v rows, factors)."""
    m, n = a.nrows, a.ncols
    s = [list(row) for row in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)] if track else None
    v = [[int(i == j) for j in range(n)] for i in range(n)] if track else None

    def row_swap(i, k):
        s[i], s[k] = s[k], s[i]
        if track:
            u[i], u[k] = u[k], u[i]

    def col_swap(j, k):
        for row in s:
            row[j], row[k] = row[k], row[j]
        if track:
            for row in v:
                row[j], row[k] = row[k], row[j]

    def row_addmul(i, k, q):
        # row i += q * row k
        si, sk = s[i], s[k]
        for j in range(n):
            si[j] += q * sk[j]
        if track:
            ui, uk = u[i], u[k]
            for j in range(m):
                ui[j] += q * uk[j]

    def col_addmul(j, k, q):
        # col j += q * col k
        for row in s:
            row[j] += q * row[k]
        if track:
            for row in v:
                row[j] += q * row[k]

    def row_negate(i):
        s[i] = [-x for x in s[i]]
        if track:
            u[i] = [-x for x in u[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = reference_find_pivot(s, t, m, n)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            if s[t][t] < 0:
                row_negate(t)
            p = s[t][t]
            dirty = False
            for i in range(m):
                if i != t and s[i][t]:
                    row_addmul(i, t, -(s[i][t] // p))
                    if s[i][t]:
                        dirty = True
            if not dirty:
                for j in range(n):
                    if j != t and s[t][j]:
                        col_addmul(j, t, -(s[t][j] // p))
                        if s[t][j]:
                            dirty = True
            if not dirty:
                break
            piv = reference_find_pivot(s, t, m, n)
        # force divisibility: pivot must divide every remaining entry
        p = s[t][t]
        offender = None
        for i in range(t + 1, m):
            row = s[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_addmul(t, offender, 1)
            continue
        t += 1
    factors = tuple(s[i][i] for i in range(limit))
    return s, u, v, factors


def reference_kernel_basis(a: IntMatrix) -> IntMatrix:
    """``kernel_basis`` as it was when the Smith form kept the column
    transform v: the kernel is spanned by the columns of v whose factor is
    zero or that lie past the diagonal. The body is kept verbatim, with v
    and the factors read from ``reference_diagonalize``."""
    _, _, v, factors = reference_diagonalize(a, True)
    limit = min(a.nrows, a.ncols)
    free_cols = [j for j in range(a.ncols)
                 if j >= limit or factors[j] == 0]
    vectors = [tuple(v[i][j] for i in range(a.ncols)) for j in free_cols]
    return hermite_row_basis(vectors, a.ncols)


def reference_eventual_kernel(a: IntMatrix) -> IntMatrix:
    """``eventual_kernel`` as it was before it used ``mat_pow``, on
    ``reference_kernel_basis``: n - 1 sequential products."""
    n = a.nrows
    if n == 0:
        return IntMatrix((), 0)
    power = a
    for _ in range(n - 1):
        power = power @ a
    return reference_kernel_basis(power)


def shaped_matrix(nrows, ncols,
                  entries=st.one_of(st.sampled_from((0, 1)),
                                    st.integers(-50, 50))):
    """Matrices whose row and column counts are drawn from the given
    strategies; either may be 0. Entries lie in -50..50, with 0 and 1
    drawn often, since the product skips zeros and does not scale by 1."""
    return st.tuples(nrows, ncols).flatmap(
        lambda shape: st.lists(
            st.lists(entries, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0], max_size=shape[0]).map(
                lambda rows: IntMatrix(tuple(map(tuple, rows)), shape[1])))


def reference_matmul(a, b):
    """Naive triple loop."""
    return IntMatrix(tuple(
        tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(a.ncols))
              for j in range(b.ncols)) for i in range(a.nrows)), b.ncols)


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

    @given(st.integers(0, 5).flatmap(lambda k: st.tuples(
        st.one_of(shaped_matrix(st.integers(0, 5), st.just(k)),
                  shaped_matrix(st.integers(0, 5), st.just(k),
                                st.sampled_from((0,) * 6 + (1, -1, 7)))),
        shaped_matrix(st.just(k), st.integers(0, 5)))))
    def test_matmul_matches_triple_loop(self, pair):
        a, b = pair
        assert a @ b == reference_matmul(a, b)

    def test_matmul_empty_inner_and_outer(self):
        assert (IntMatrix.zeros(3, 0) @ IntMatrix((), 4)
                == IntMatrix.zeros(3, 4))
        assert (IntMatrix((), 3) @ mat([[1, 2], [3, 4], [5, 6]])
                == IntMatrix((), 2))
        assert mat([[1, 2]]) @ IntMatrix.zeros(2, 0) == IntMatrix.zeros(1, 0)

    def test_matmul_rejects(self):
        a = mat([[1, 2], [3, 4]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            a @ mat([[1, 2]])
        assert a.__matmul__([[1, 0], [0, 1]]) is NotImplemented
        with pytest.raises(TypeError):
            a @ 3

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

    def test_from_rows_does_not_convert(self):
        for bad in (2.0, True, "3"):
            with pytest.raises(ValueError, match="matrix entries must be ints"):
                mat([[1, bad]])

    @pytest.mark.parametrize("bad", [2.9, -0.7, True, "3"])
    def test_vector_entry_types_rejected(self, bad):
        a = mat([[2, 0], [0, 1]])
        calls = [lambda v: a.apply(v), lambda v: in_column_span(a, v),
                 lambda v: mat_pow_apply(a, v, 0),
                 lambda v: mat_pow_apply(a, v, 2)]
        for call in calls:
            with pytest.raises(ValueError, match="vector entries must be ints"):
                call((bad, 1))

    def test_vector_int_subclass_accepted(self):
        class Tagged(int):
            pass

        a = mat([[2, 0], [0, 1]])
        assert in_column_span(a, (Tagged(2), 5))
        out = mat_pow_apply(a, (Tagged(3), Tagged(4)), 0)
        assert out == (3, 4) and all(type(x) is int for x in out)
        assert a.apply((Tagged(1), 1)) == (2, 1)


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
        """u @ a @ v == s for some unimodular v, which is what
        ``h0_class`` relies on: u is unimodular and u @ a has the column
        lattice of s, the diagonal matrix of the factors in the shape of
        a."""
        dec = smith_normal_form(a)
        assert len(dec.factors) == min(a.nrows, a.ncols)
        s = IntMatrix(tuple(
            tuple(dec.factors[i] if i == j else 0 for j in range(a.ncols))
            for i in range(a.nrows)), a.ncols)
        u = full_u(dec)
        assert det(u) in (1, -1)
        assert (hermite_row_basis((u @ a).transpose().rows, a.nrows)
                == hermite_row_basis(s.transpose().rows, a.nrows))

    @given(small_matrix())
    def test_invariant_factors_shortcut_agrees(self, a):
        assert invariant_factors(a) == smith_normal_form(a).factors


def survey_pairs(rng, n, nedges, sinks):
    """Edge list shaped like the benchmark survey's random records: the
    last ``sinks`` vertices have no out-edge, every other vertex has at
    least one."""
    sources = list(range(n - sinks))
    pairs = [(i, rng.randrange(n)) for i in sources]
    pairs += [(rng.choice(sources), rng.randrange(n))
              for _ in range(nedges - len(pairs))]
    rng.shuffle(pairs)
    return pairs


class TestDiagonalizeMatchesReference:
    """The sparse elimination with its row-operation log against the plain
    dense elimination: the same factors, the same full u, the same rows of
    u from ``u_rows`` for any list of positions, and the same u @ vec from
    ``u_apply``, the log replayed forward. The reference also builds the
    diagonal and v, which the elimination does not keep. The sparse
    invariant_factors is held to the reference's factors as well, so its
    merges and the core left after them face an independent elimination."""

    @staticmethod
    def check(a, positions, vec):
        _, u, _, factors = reference_diagonalize(a, True)
        u = IntMatrix(tuple(map(tuple, u)), a.nrows)
        dec = smith_normal_form(a)
        assert dec.factors == factors
        assert full_u(dec) == u
        assert dec.u_rows(positions) == tuple(u.rows[r] for r in positions)
        assert dec.u_apply(vec) == u.apply(vec)
        assert invariant_factors(a) == factors

    @staticmethod
    def draw(data, a):
        """Positions of rows of u and a vector of length a.nrows."""
        positions = data.draw(st.lists(st.integers(0, a.nrows - 1),
                                       max_size=6)) if a.nrows else []
        vec = data.draw(st.lists(st.integers(-9, 9), min_size=a.nrows,
                                 max_size=a.nrows))
        return positions, vec

    @given(small_matrix(), st.data())
    def test_small(self, a, data):
        self.check(a, *self.draw(data, a))

    @given(sparse_matrix(), st.data())
    def test_sparse(self, a, data):
        self.check(a, *self.draw(data, a))

    @given(small_matrix(max_dim=8, max_entry=50), st.data())
    def test_dense_big_entries(self, a, data):
        self.check(a, *self.draw(data, a))

    @pytest.mark.parametrize("sinks", [False, True])
    def test_relation_matrix_n120(self, seeded_graph, sinks):
        a = homology.h0_presentation(seeded_graph(120, 120, sinks)).relations
        assert (a.ncols < 120) == sinks
        rng = Random(7)
        self.check(a, sorted(rng.sample(range(120), 20)),
                   [rng.randint(-9, 9) for _ in range(120)])

    @pytest.mark.parametrize("sinks", [0, 16])
    def test_survey_coordinate_rows(self, sinks):
        """On survey-shaped graphs with n = 160, u @ vec from the replayed
        log, which the class coordinates read, is that of the reference,
        for unit vectors and a drawn vector."""
        rng = Random(sinks)
        pairs = survey_pairs(rng, 160, 320, sinks)
        g = graph_from_dict({
            "vertices": ["v%d" % i for i in range(160)],
            "edges": [{"id": "e%d" % k, "src": "v%d" % i, "dst": "v%d" % j}
                      for k, (i, j) in enumerate(pairs)]})
        pres = homology.h0_presentation(g)
        _, u, _, factors = reference_diagonalize(pres.relations, True)
        u = IntMatrix(tuple(map(tuple, u)), 160)
        vecs = [tuple(int(i == j) for j in range(160)) for i in range(160)]
        vecs.append(tuple(rng.randint(-9, 9) for _ in range(160)))
        for vec in vecs:
            assert pres.smith.u_apply(vec) == u.apply(vec)
        assert pres.smith.factors == factors
        assert 160 - sum(1 for d in factors if d == 1) >= sinks

    def test_smith_normal_form_wraps_the_rows(self, seeded_graph):
        pres = homology.h0_presentation(seeded_graph(7, 30, True))
        a = pres.relations
        _, u, _, factors = reference_diagonalize(a, True)
        dec = sparse_smith_normal_form(pres.relation_columns,
                                       len(pres.vertex_order))
        assert dec == smith_normal_form(a)
        assert full_u(dec) == IntMatrix.from_rows(u, a.nrows)
        assert dec.factors == factors


class TestSparseUnitElimination:
    """invariant_factors (identifications merged, then the rest
    eliminated) against the dense smith_normal_form."""

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

    @pytest.fixture
    def oracle_5v(self, monkeypatch):
        """The oracle's relation columns of a 5-vertex, 12-edge graph at
        max_len 4, with the graph, the dense reference matrix they equal
        exactly, and the group."""
        # test_homology imports this module, so its helper is imported
        # here, once both are loaded
        from test_homology import reference_oracle_relations
        vs = ["v%d" % i for i in range(5)]
        pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3),
                 (2, 4), (3, 0), (4, 1), (0, 0), (2, 2)]
        g = graph_from_dict({
            "vertices": vs,
            "edges": [{"id": "e%d" % k, "src": vs[i], "dst": vs[j]}
                      for k, (i, j) in enumerate(pairs)]})
        seen = []

        def capture(columns, nrows):
            seen.append((tuple(map(tuple, columns)), nrows))
            return sparse_cokernel(columns, nrows)

        with monkeypatch.context() as m:
            m.setattr(homology, "sparse_cokernel", capture)
            group = homology.h0_bruteforce_oracle(g, 4)
        ((columns, nrows),) = seen
        a = reference_oracle_relations(g, 4)
        assert nrows == a.nrows
        assert columns == tuple(map(tuple, intlinalg._columns(a)))
        return g, a, columns, group

    @pytest.fixture
    def work(self, monkeypatch):
        """The work of ``_sparse_factors`` from here on: the merges and
        rest columns of ``_merge_identifications``; per core handed to
        ``_eliminate`` its rows, columns, nonzeros, nonzero factors and
        1s; and the ``_add_row`` calls, the entries they read and the
        pivot row of each."""
        merge = intlinalg._merge_identifications
        add_row, eliminate = intlinalg._add_row, intlinalg._eliminate
        work = {"merges": 0, "rest": 0, "add_row": [0, 0], "cores": [],
                "pivot_rows": []}

        def counted_merge(columns, nrows):
            merges, rest = merge(columns, nrows)
            work["merges"] += merges
            work["rest"] += len(rest)
            return merges, rest

        def counted_add_row(rows, cols, i, q, src):
            work["add_row"][0] += 1
            work["add_row"][1] += len(rows[src])
            work["pivot_rows"].append(src)
            return add_row(rows, cols, i, q, src)

        def counted_eliminate(rows, col_ids):
            shape = (len(rows), len(col_ids), sum(map(len, rows)))
            dec = eliminate(rows, col_ids)
            work["cores"].append(shape + (
                sum(1 for d in dec.factors if d), dec.factors.count(1)))
            return dec

        monkeypatch.setattr(intlinalg, "_merge_identifications",
                            counted_merge)
        monkeypatch.setattr(intlinalg, "_add_row", counted_add_row)
        monkeypatch.setattr(intlinalg, "_eliminate", counted_eliminate)
        return work

    def test_oracle_matrix_agrees_with_dense(self, oracle_5v):
        g, a, _, group = oracle_5v
        assert a.nrows >= 200
        assert invariant_factors(a) == smith_normal_form(a).factors
        assert group == homology.h0(g)

    def test_oracle_matrix_pivot_counts(self, oracle_5v, work):
        """The documented path, pinned by its work on the oracle's
        columns: the merges and the rest columns; the one core that
        ``_eliminate`` gets, its rows, columns and nonzeros, nonzero
        factors and 1s; and its ``_add_row`` calls, with the entries they
        read and their pivot rows, indices into the core's rows as listed
        sparsest first. A different merge rule, core or order changes
        them."""
        _, a, columns, group = oracle_5v
        factors = intlinalg._sparse_factors(columns, a.nrows)
        assert intlinalg._group(a.nrows, factors) == group
        assert a.shape == (309, 426)
        assert (work["merges"], work["rest"]) == (304, 5)
        assert work["cores"] == [(5, 5, 13, 5, 4)]
        assert factors.count(1) == 304 + 4
        assert work["add_row"] == [6, 12]
        assert work["pivot_rows"] == [0, 1, 1, 2, 2, 3]

    def test_out_degree_one_needs_no_pivot(self, work):
        """When every regular vertex has one out-edge, each relation
        column is an identification or, for a loop, zero, so
        ``sparse_cokernel`` gets every factor from the merges: no
        ``_add_row`` and no core."""
        rng = Random(67)
        merged = 0
        for n in (1, 2, 5, 12, 40):
            for _ in range(6):
                sinks = rng.randrange(n)
                names = ["v%d" % i for i in range(n)]
                g = graph_from_dict({"vertices": names, "edges": [
                    {"id": "e%d" % i, "src": names[i],
                     "dst": names[rng.randrange(n)]}
                    for i in range(sinks, n)]})
                pres = homology.h0_presentation(g)
                before = work["merges"]
                group = sparse_cokernel(pres.relation_columns, n)
                factors = reference_diagonalize(pres.relations, False)[3]
                ones = sum(1 for d in factors if d)
                assert group == FpAbelianGroup(n - ones, ())
                assert work["merges"] - before == ones
                merged += ones
        assert merged > 50
        assert work["add_row"] == [0, 0]
        assert work["cores"] == []

    def test_unit_from_fill_is_pivoted(self, work):
        # no identification to merge, so the core is the whole matrix;
        # the pivot at (0, 1) turns the 3 into 3 - 2 = 1, and that unit
        # must be found too, with no further row update
        a = mat([[2, 1], [3, 1]])
        assert invariant_factors(a) == (1, 1)
        assert work["cores"] == [(2, 2, 4, 2, 2)]
        assert work["add_row"] == [1, 2]
        assert work["pivot_rows"] == [0]
        assert smith_normal_form(a).factors == (1, 1)

    def test_large_oracle_matches_h0(self, graph_f):
        # 2^14 - 1 = 16383 path generators
        assert homology.h0_bruteforce_oracle(graph_f, 13) == \
            homology.h0(graph_f)


@st.composite
def incidence_columns(draw, max_rows=10, max_cols=16):
    """(columns, nrows) in the relation-column form of ``sparse_cokernel``,
    heavy in what the union-find meets: identifications +-(e_a - e_b),
    which close cycles among few rows and repeat; zero columns; repeats
    of an earlier column; unit singletons; and non-unit columns, two-entry
    ones among them. Rows that no column touches stay empty, and nrows is
    drawn apart from the column count, so either may be the larger."""
    nrows = draw(st.integers(0, max_rows))
    columns = []
    for _ in range(draw(st.integers(0, max_cols))):
        kind = draw(st.sampled_from(
            ("ident",) * 5 + ("zero", "repeat", "repeat", "unit", "other",
                              "other")))
        if kind == "zero" or not nrows or kind == "repeat" and not columns:
            columns.append(())
        elif kind == "repeat":
            columns.append(draw(st.sampled_from(columns)))
        elif kind == "ident" and nrows > 1:
            a, b = draw(st.lists(st.integers(0, nrows - 1), min_size=2,
                                 max_size=2, unique=True))
            x = draw(st.sampled_from((1, -1)))
            columns.append(((a, x), (b, -x)))
        elif kind == "unit" or kind == "ident":
            columns.append(((draw(st.integers(0, nrows - 1)),
                             draw(st.sampled_from((1, -1)))),))
        else:
            rows = draw(st.lists(st.integers(0, nrows - 1), min_size=1,
                                 max_size=3, unique=True))
            entry = st.sampled_from((-3, -2, -1, 1, 2, 3))
            columns.append(tuple((i, draw(entry)) for i in rows))
    return columns, nrows


def dense_from_columns(columns, nrows):
    rows = [[0] * len(columns) for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col:
            rows[i][j] = x
    return IntMatrix(tuple(map(tuple, rows)), len(columns))


class TestMergeIdentifications:
    """The union-find pass of ``_sparse_factors`` against the dense
    ``smith_normal_form``, which merges nothing."""

    @given(incidence_columns())
    def test_agrees_with_dense(self, drawn):
        columns, nrows = drawn
        a = dense_from_columns(columns, nrows)
        factors = smith_normal_form(a).factors
        assert intlinalg._sparse_factors(columns, nrows) == factors
        assert invariant_factors(a) == factors
        assert sparse_cokernel(columns, nrows) == cokernel(a) == \
            intlinalg._group(nrows, factors)

    @given(incidence_columns(max_rows=4, max_cols=24))
    def test_few_rows_many_columns(self, drawn):
        columns, nrows = drawn
        a = dense_from_columns(columns, nrows)
        assert intlinalg._sparse_factors(columns, nrows) == \
            smith_normal_form(a).factors

    def test_each_case(self):
        """A cycle and a negated repeat are dropped, two columns that
        agree on the classes count once, a zero column goes, and row 5
        stays empty."""
        columns = [((0, 1), (1, -1)), ((1, 1), (2, -1)), ((2, 1), (0, -1)),
                   ((0, -1), (1, 1)), ((0, 2), (3, 1)), ((1, 2), (3, 1)),
                   (), ((4, 3),), ((3, -1),), ((2, 1), (3, 1))]
        merges, rest = intlinalg._merge_identifications(columns, 6)
        assert merges == 2
        assert rest == [[(0, 2), (3, 1)], [(4, 3)], [(3, -1)],
                        [(0, 1), (3, 1)]]
        a = dense_from_columns(columns, 6)
        assert intlinalg._sparse_factors(columns, 6) == \
            smith_normal_form(a).factors == (1, 1, 1, 1, 3, 0)
        assert sparse_cokernel(columns, 6) == FpAbelianGroup(1, (3,))

    def test_nothing_merged_keeps_the_columns(self):
        columns = [((0, 1), (1, 1)), ((0, 2), (1, -2)), ((1, 1),)]
        assert intlinalg._merge_identifications(columns, 2) == (0, columns)
        assert intlinalg._sparse_factors(columns, 2) == (1, 1)


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

    def test_empty_shapes(self):
        assert eventual_kernel(IntMatrix((), 0)) == IntMatrix((), 0)
        assert kernel_basis(IntMatrix((), 3)) == IntMatrix.identity(3)
        assert kernel_basis(IntMatrix.zeros(3, 0)) == IntMatrix((), 0)

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


class TestKernelsMatchReference:
    """kernel_basis, the left kernel of the transpose read from u, against
    the kernel read from the columns of v. Both are Hermite bases of the
    same lattice, so they are equal."""

    @given(small_matrix())
    def test_small(self, a):
        assert kernel_basis(a) == reference_kernel_basis(a)

    @given(sparse_matrix())
    def test_sparse(self, a):
        assert kernel_basis(a) == reference_kernel_basis(a)

    @given(small_matrix(max_dim=8, max_entry=50))
    def test_dense_big_entries(self, a):
        assert kernel_basis(a) == reference_kernel_basis(a)

    @pytest.mark.parametrize("seed, n", [(1, 10), (2, 12), (3, 15), (4, 18),
                                         (5, 20)])
    def test_eventual_kernel_row_sum_two(self, seed, n):
        a = row_sum_two(seed, n)
        basis = eventual_kernel(a)
        assert basis.nrows > 0
        assert basis == reference_eventual_kernel(a)


def nilpotent_matrix(max_dim=5, max_entry=3):
    """Strictly upper triangular matrices conjugated by a unimodular
    elementary matrix: nilpotent, so the eventual kernel is everything,
    reached at a power up to the size."""
    return st.integers(1, max_dim).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-max_entry, max_entry), min_size=n,
                          max_size=n), min_size=n, max_size=n),
        st.integers(0, n - 1), st.integers(0, n - 1),
        st.integers(-2, 2)).map(lambda t: _conjugated_nilpotent(*t)))


def _elementary(n, i, j, q):
    """I + q e_i e_j^T, unimodular for i != j, with inverse q -> -q."""
    rows = [[int(r == c) for c in range(n)] for r in range(n)]
    rows[i][j] = q
    return IntMatrix.from_rows(rows, n)


def _conjugated_nilpotent(rows, i, j, q):
    n = len(rows)
    strict = IntMatrix(tuple(tuple(x if c > r else 0 for c, x in
                                   enumerate(row))
                             for r, row in enumerate(rows)), n)
    if i == j:
        return strict
    return (_elementary(n, i, j, q) @ strict) @ _elementary(n, i, j, -q)


@st.composite
def jordan_conjugates(draw):
    """(a, chains): a unimodular conjugate of the direct sum of nilpotent
    Jordan chains (sizes ``chains``) and an invertible upper triangular
    block. In about half of them the chains are one long chain and chains
    of size 1, where the bound m = z - d + 1 of ``eventual_kernel`` is the
    stabilization index itself."""
    if draw(st.booleans()):
        chains = [draw(st.integers(1, 4))] + [1] * draw(st.integers(0, 2))
    else:
        chains = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    r = draw(st.integers(0, 3))
    n = sum(chains) + r
    rows = [[0] * n for _ in range(n)]
    start = 0
    for size in chains:
        for k in range(start, start + size - 1):
            rows[k][k + 1] = 1
        start += size
    for k in range(start, n):
        rows[k][k] = draw(st.sampled_from([-2, -1, 1, 2, 3]))
        for c in range(k + 1, n):
            rows[k][c] = draw(st.integers(-2, 2))
    a = IntMatrix.from_rows(rows, n)
    moves = draw(st.lists(st.tuples(st.integers(0, n - 1),
                                    st.integers(0, n - 1),
                                    st.integers(-2, 2)), max_size=6))
    for i, j, q in moves:
        if i != j:
            a = (_elementary(n, i, j, q) @ a) @ _elementary(n, i, j, -q)
    return a, chains


class TestEventualKernelStopsEarly:
    """eventual_kernel stops at ker(a^m), m = z - d + 1 <= n, with z the
    multiplicity of the root 0 of the characteristic polynomial and
    d = n - rank(a); the basis must equal the kernel basis of a^n."""

    @given(st.one_of(square_matrix(max_dim=5, max_entry=3),
                     nilpotent_matrix()))
    def test_matches_full_power(self, a):
        assert eventual_kernel(a) == full_power_eventual_kernel(a)

    @given(jordan_conjugates())
    def test_jordan_chains_with_invertible_block(self, case):
        a, chains = case
        basis = eventual_kernel(a)
        assert basis == reference_eventual_kernel(a)
        assert basis == full_power_eventual_kernel(a)
        assert basis.nrows == sum(chains)
        # one chain and chains of size 1: m is the stabilization index,
        # so no lower power has the whole eventual kernel
        if chains[0] > 1 and chains[1:] == [1] * (len(chains) - 1):
            assert kernel_basis(mat_pow(a, chains[0] - 1)) != basis

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_zero_matrix_kernel_is_everything(self, n):
        zero = IntMatrix.zeros(n, n)
        assert eventual_kernel(zero) == IntMatrix.identity(n)
        assert eventual_kernel(zero) == reference_eventual_kernel(zero)

    @pytest.mark.parametrize("n", [20, 40, 60])
    def test_row_sum_two(self, n):
        a = row_sum_two(n, n)
        basis = eventual_kernel(a)
        assert basis.nrows > 0
        assert basis == full_power_eventual_kernel(a)


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

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_length_checked_at_every_power(self, k):
        for a, vec in ((mat([[1, 1], [1, 0]]), (1,)),
                       (mat([[1, 1], [1, 0]]), (1, 0, 0)),
                       (IntMatrix((), 0), (0,)), (IntMatrix((), 0), (1, -1))):
            with pytest.raises(ValueError, match=r"^dimension mismatch: "
                               r"\(%d, %d\) applied to length %d$"
                               % (a.nrows, a.ncols, len(vec))):
                mat_pow_apply(a, vec, k)
        assert mat_pow_apply(IntMatrix((), 0), (), k) == ()

    def test_fibonacci(self):
        assert mat_pow_apply(mat([[1, 1], [1, 0]]), (1, 0), 5) == (8, 5)

    @given(square_matrix(max_dim=3, max_entry=3), st.integers(0, 6))
    def test_mat_pow_matches_repeated_product(self, a, k):
        expected = IntMatrix.identity(a.nrows)
        for _ in range(k):
            expected = expected @ a
        assert mat_pow(a, k) == expected

    @pytest.mark.parametrize("bad", [0.5, 2.0, True, "2"])
    def test_non_int_power_rejected(self, bad):
        a = mat([[1, 1], [1, 0]])
        with pytest.raises(ValueError, match="^powers must be ints"):
            mat_pow(a, bad)
        with pytest.raises(ValueError, match="^powers must be ints"):
            mat_pow_apply(a, (1, 0), bad)

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


def _argument_check_rows():
    """(entry point, call, message) for every entry point of the one
    vector check and the one square check: sq is 2 x 2, the triple's
    transposed adjacency is too, and wide is 2 x 3."""
    from grhom.dynamics import (ShiftEquivalenceCertificate,
                                characteristic_polynomial,
                                search_shift_equivalence,
                                verify_shift_equivalence)
    from grhom.graded import StagedVector, dimension_triple
    sq, wide = mat([[1, 1], [1, 0]]), mat([[1, 0, 1], [0, 1, 1]])
    cert = ShiftEquivalenceCertificate(r=sq, s=sq, lag=1)
    t = dimension_triple(graph_from_dict({"vertices": ["u", "v"], "edges": [
        {"id": "e", "src": "u", "dst": "v"},
        {"id": "f", "src": "v", "dst": "u"}]}))
    bad = (1, 2, 3)
    vector = "dimension mismatch: (2, 2) applied to length 3"
    square = "%s must be square, got 2 x 3"
    return [
        ("IntMatrix.apply", lambda: sq.apply(bad), vector),
        ("mat_pow_apply-k0", lambda: mat_pow_apply(sq, bad, 0), vector),
        ("mat_pow_apply-k1", lambda: mat_pow_apply(sq, bad, 1), vector),
        ("mat_pow_apply-k2", lambda: mat_pow_apply(sq, bad, 2), vector),
        ("DimensionTriple.element", lambda: t.element(bad), vector),
        ("DimensionTriple.from_staged",
         lambda: t.from_staged(StagedVector.build({0: bad})), vector),
        ("DimensionTriple.equal",
         lambda: t.equal(((1, 0), 0), (bad, 0)), vector),
        ("DimensionTriple.is_positive",
         lambda: t.is_positive((bad, 0), 3), vector),
        ("characteristic_polynomial",
         lambda: characteristic_polynomial(wide), square % "A"),
        ("eventual_kernel", lambda: eventual_kernel(wide), square % "A"),
        ("mat_pow", lambda: mat_pow(wide, 2), square % "A"),
        ("mat_pow_apply-k2-wide",
         lambda: mat_pow_apply(wide, bad, 2), square % "A"),
        ("verify_shift_equivalence-A",
         lambda: verify_shift_equivalence(wide, sq, cert), square % "A"),
        ("verify_shift_equivalence-B",
         lambda: verify_shift_equivalence(sq, wide, cert), square % "B"),
        ("search_shift_equivalence-A",
         lambda: search_shift_equivalence(wide, sq, 1, 1), square % "A"),
        ("search_shift_equivalence-B",
         lambda: search_shift_equivalence(sq, wide, 1, 1), square % "B"),
    ]


class TestArgumentChecks:
    """Each entry point that takes a vector for a matrix, or needs a
    square matrix, raises the one message of the one check."""

    @pytest.mark.parametrize("call, message", [
        pytest.param(call, message, id=name)
        for name, call, message in _argument_check_rows()])
    def test_one_message(self, call, message):
        with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
            call()
