"""Exact linear algebra over the integers.

Dense matrices of Python ints (arbitrary precision, never floats), Smith
normal form with its unimodular row transform, Hermite-reduced kernel bases,
characteristic polynomials and eventual kernels of square matrices, and
finitely generated abelian groups presented as cokernels.

Each check on a matrix argument is made in one place, with one message.
``_vector_for`` reads a vector as ints of the matrix's column count,
else ``dimension mismatch: (r, c) applied to length n``;
``_require_square`` rejects a matrix that is not square with
``A must be square, got r x c``, the label A replaceable. Matrix-vector
products and powers, characteristic polynomials, eventual kernels,
``graded.DimensionTriple`` and the shift-equivalence code of ``dynamics``
all call these two.

There is one Smith elimination, ``_eliminate``, on sparse rows: dicts
column -> nonzero entry under stable row ids, with ``order`` mapping
positions to row ids, ``at``/``pos`` permuting the columns and a set of
row ids per column, so a swap costs O(1). Its pivot rule is the plain
dense one: the first +-1 in row-major order of positions, else the
row-major-first entry of smallest |x|; a nonnegative diagonal; quotients
-(x // p); and the chain d1 | d2 | ... forced by adding the first row, in
position order, that p does not divide. So u and the factors are those of
the dense elimination; u fixes the coordinates of ``homology.h0_class``.

u is never built as a matrix: the log is its only form. Row operations
are logged as (k, src, q), "row k += q * row src", a negation of row k as
(k, k, -2). Over row ids they multiply out to U = E_N ... E_1 with
E = I + q e_k e_src^T. A swap only moves ids in ``order``, and an
operation on positions a and b is the one on ids order[a] and order[b],
so row r of u is e_{order[r]}^T U. ``SmithDecomposition.u_apply`` gives
u @ vec by replaying the log forward on a copy of vec, w_k += q * w_src
(for (k, k, -2) that flips w_k), and reading w in ``order``: one pass per
vector, which is how ``homology.h0_class`` gets its coordinates. As
w E = w + q w_k e_src^T, ``SmithDecomposition.u_rows`` starts from
e_{order[r]} and walks the log backwards, adding q * w_k to w_src, for
the rows of u that kernels read: ``_left_kernel`` takes those with factor
0 or past the diagonal, the source of every kernel.

Sparse input is one form, relation columns: a list with one sequence of
(row, entry) pairs per column, rows distinct and entries nonzero, plus
the row count. ``sparse_smith_normal_form`` and ``sparse_cokernel`` take
it and only read it; ``smith_normal_form`` scans a dense matrix into rows
and ``invariant_factors`` (behind ``cokernel``) into columns. The
cokernels need only the diagonal, from the one cokernel path
``_sparse_factors``: a union-find first merges the identification columns
+-(e_a - e_b), each merge a factor 1, so SNF(A) = diag(1, ..., 1,
SNF(A')), and the rows of the rest A' go to ``_eliminate``, sparsest
first. The Smith diagonal is unique, so both paths give the same factors.
``sparse_characteristic_polynomial`` reads a square matrix in the same
pair form by rows, which are the columns of its transpose, a matrix with
the same characteristic polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, and_, mul, rshift


def _require_int(x, what):
    """x as a plain int, an int subclass included; bools and non-ints,
    floats among them, raise ValueError. Hot callers pass exact ints on a
    cheaper ``type(x) is int`` test first."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError("%s must be ints, got %r" % (what, x))
    return int(x)


def _int_vector(vec) -> tuple[int, ...]:
    """vec as a tuple of plain ints, entries checked as in ``IntMatrix``."""
    vec = tuple(vec)
    if all(type(x) is int for x in vec):
        return vec
    return tuple(_require_int(x, "vector entries") for x in vec)


def _vector_for(a, vec) -> tuple[int, ...]:
    """vec as ints, of a's column count: the one check that a vector fits
    the matrix a, with the one message when it does not."""
    vec = _int_vector(vec)
    if len(vec) != a.ncols:
        raise ValueError("dimension mismatch: %s applied to length %d"
                         % (a.shape, len(vec)))
    return vec


def _require_square(a, label="A"):
    """The one square check, named ``label`` in its message."""
    if a.nrows != a.ncols:
        raise ValueError("%s must be square, got %s x %s"
                         % (label, a.nrows, a.ncols))


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix.

    ``ncols`` is stored explicitly so matrices with zero rows keep their
    shape; a 2 x 0 matrix and a 0 x 2 matrix are different objects.
    """

    rows: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self):
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged matrix: row length %d != ncols %d"
                                 % (len(row), self.ncols))
            for x in row:
                if type(x) is not int:
                    _require_int(x, "matrix entries")

    @classmethod
    def from_rows(cls, rows, ncols=None):
        rows = tuple(map(tuple, rows))
        if ncols is None:
            if not rows:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(rows[0])
        return cls(rows, ncols)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), n)

    @classmethod
    def zeros(cls, nrows, ncols):
        return cls(tuple((0,) * ncols for _ in range(nrows)), ncols)

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        rows = tuple(tuple(r[j] for r in self.rows) for j in range(self.ncols))
        return IntMatrix(rows, self.nrows)

    def __matmul__(self, other):
        """Row i of the product is the sum of x * other.rows[k] over the
        nonzeros x of row i of self, added one term at a time, and x = 1 is
        not multiplied out, so the cost follows the nonzeros of self, not
        its size."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch: %s @ %s" % (self.shape, other.shape))
        right, ncols = other.rows, other.ncols
        out = []
        for row in self.rows:
            terms = [(k, x) for k, x in enumerate(row) if x]
            if not terms:
                out.append((0,) * ncols)
                continue
            k, x = terms[0]
            acc = right[k] if x == 1 else [x * y for y in right[k]]
            for k, x in terms[1:]:
                acc = (list(map(add, acc, right[k])) if x == 1
                       else [s + x * y for s, y in zip(acc, right[k])])
            out.append(tuple(acc))
        return IntMatrix(tuple(out), ncols)

    def apply(self, vec):
        """Matrix-vector product, vec given as a sequence of ints."""
        vec = _vector_for(self, vec)
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def is_zero(self):
        return all(x == 0 for row in self.rows for x in row)

    def is_nonneg(self):
        return all(x >= 0 for row in self.rows for x in row)

    def to_decimal_rows(self):
        """Row-major nested lists of decimal strings, for JSON reports."""
        return [[str(x) for x in row] for row in self.rows]


@dataclass(frozen=True)
class SmithDecomposition:
    """u unimodular with u @ a @ v == diag(factors) for some unimodular v;
    neither v nor the diagonal matrix is kept, and u is kept as the
    elimination's row-operation ``log`` and final row ``order``.

    ``factors`` is the full Smith diagonal (length min(nrows, ncols)): the
    divisibility chain d1 | d2 | ... | dk followed by zeros, all nonnegative.
    """

    factors: tuple[int, ...]
    order: tuple[int, ...]
    log: tuple[tuple[int, int, int], ...]

    def u_rows(self, positions) -> tuple[tuple[int, ...], ...]:
        """The rows of u at ``positions``, each walked back through the
        log (see the module docstring)."""
        out = []
        for r in positions:
            w = [0] * len(self.order)
            w[self.order[r]] = 1
            for k, src, q in reversed(self.log):
                if w[k]:
                    w[src] += q * w[k]
            out.append(tuple(w))
        return tuple(out)

    def u_apply(self, vec) -> tuple[int, ...]:
        """u @ vec, the log replayed forward on a copy of vec (see the
        module docstring); vec is a sequence of len(order) ints."""
        w = list(vec)
        for k, src, q in self.log:
            if w[src]:
                w[k] += q * w[src]
        return tuple(w[i] for i in self.order)


@dataclass(frozen=True)
class FpAbelianGroup:
    """Finitely generated abelian group in canonical form.

    rank gives the free part, torsion the invariant factors > 1 in
    divisibility order; equality of instances is isomorphism.
    """

    rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        for i, d in enumerate(self.torsion):
            if d <= 1:
                raise ValueError("torsion factors must exceed 1, got %d" % d)
            if i and self.torsion[i] % self.torsion[i - 1] != 0:
                raise ValueError("torsion factors must form a divisibility chain")

    def describe(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append("Z^%d" % self.rank)
        parts.extend("Z/%d" % d for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def to_dict(self):
        return {"rank": self.rank, "torsion": list(self.torsion)}


def _add_row(rows, cols, i, q, src):
    """rows[i] += q * rows[src] for q != 0, keeping the column sets
    ``cols``: the one sparse row update of ``_eliminate``. As q != 0,
    an entry new to rows[i] is nonzero."""
    row = rows[i]
    for j, x in rows[src].items():
        y = row.get(j)
        if y is None:
            row[j] = q * x
            cols[j].add(i)
        elif y := y + q * x:
            row[j] = y
        else:
            del row[j]
            cols[j].discard(i)


def _eliminate(rows, col_ids) -> SmithDecomposition:
    """The Smith elimination of the module docstring on ``rows``, dicts
    column -> nonzero entry (consumed; a row's id is its index), with the
    columns ``col_ids`` in order."""
    m, at = len(rows), list(col_ids)
    pos = {j: c for c, j in enumerate(at)}
    cols = {j: set() for j in at}
    for i, row in enumerate(rows):
        for j in row:
            cols[j].add(i)
    order, log, factors = list(range(m)), [], []
    limit = min(m, len(at))
    while len(factors) < limit:
        # the pivot; rows at positions >= t meet only columns there
        t = len(factors)
        best = None
        for r in range(t, m):
            if rows[order[r]]:
                x = min(map(abs, rows[order[r]].values()))
                if best is None or x < best[0]:
                    best = (x, r)
                    if x == 1:
                        break
        if best is None:
            break
        x, r = best
        k = order[r]
        j = min((j for j, y in rows[k].items() if abs(y) == x),
                key=pos.__getitem__)
        order[t], order[r] = k, order[t]
        c = at[t]
        if j != c:
            pj = pos[j]
            at[t], at[pj], pos[j], pos[c] = j, c, t, pj
            c = j
        prow = rows[k]
        p = prow[c]
        if p < 0:
            rows[k] = prow = {jj: -x for jj, x in prow.items()}
            log.append((k, k, -2))
            p = -p
        for i in [i for i in cols[c] if i != k]:
            q = -(rows[i][c] // p)
            if q:
                _add_row(rows, cols, i, q, k)
                log.append((i, k, q))
        if len(cols[c]) > 1:
            continue
        # the column operations reduce row k modulo p
        for jj in [jj for jj in prow if jj != c]:
            prow[jj] %= p
            if not prow[jj]:
                del prow[jj]
                cols[jj].discard(k)
        if len(prow) > 1:
            continue
        # force divisibility
        if p != 1:
            src = next((order[r] for r in range(t + 1, m)
                        if any(x % p for x in rows[order[r]].values())), None)
            if src is not None:
                _add_row(rows, cols, k, 1, src)
                log.append((k, src, 1))
                continue
        factors.append(p)
    return SmithDecomposition(
        tuple(factors) + (0,) * (limit - len(factors)), tuple(order),
        tuple(log))


def sparse_smith_normal_form(columns, nrows) -> SmithDecomposition:
    """``smith_normal_form`` of the nrows x len(columns) matrix given by
    its relation columns (see the module docstring), which are only read:
    row i of the elimination is the dict of column -> entry over the
    columns that hold row i, each built in column order."""
    rows = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, x in col:
            rows[i][j] = x
    return _eliminate(rows, range(len(columns)))


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """The Smith diagonal of a and its row transform u, with deterministic
    pivoting; u @ a @ v is diagonal for a unimodular v that is not kept."""
    return _eliminate([{j: x for j, x in enumerate(row) if x}
                       for row in a.rows], range(a.ncols))


def _columns(a: IntMatrix):
    """The relation columns of a: the (row, entry) nonzeros of each
    column, in row order."""
    if not a.rows:
        return [()] * a.ncols
    return [[(i, x) for i, x in enumerate(col) if x] for col in zip(*a.rows)]


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of a, without the transforms: the columns
    of a, scanned once, go to ``_sparse_factors``. The result equals
    ``smith_normal_form(a).factors``."""
    return _sparse_factors(_columns(a), a.nrows)


def _merge_identifications(columns, nrows):
    """The identification columns of ``columns`` merged in a union-find
    over the rows; returns (merges, rest).

    An identification column has exactly two nonzeros, x and -x with
    |x| = 1, in rows a and b: it is +-(e_a - e_b). Taken in column order,
    one whose rows lie in two classes merges them (the lower root id
    becomes the root), and one whose rows already share a class is
    dropped. Every other column is rewritten on the class roots, adding
    the entries that land on one root; zero entries, zero columns and
    exact repeats of an earlier rewritten column are dropped, and ``rest``
    lists the others in column order. When nothing merges, there is no
    identification column, and ``rest`` is ``columns`` itself.

    Why the factors survive. Let F be the k merging columns. They form a
    forest on the rows, so they are independent, and their span is the
    kernel of pi: Z^nrows -> Z^classes, e_i -> e_root(i), since the
    vectors of a class that sum to 0 are spanned by a spanning tree of
    it. As e_i - e_root(i) lies in span(F), F and the unit vectors of the
    roots form a basis of Z^nrows, a unimodular change of rows. In it, a
    column c reads (its part on F, pi(c)); a merging column f reads
    (+-e_f, 0), and column operations by those clear the F-part of every
    other column. So A ~ diag(I_k, pi(R)), with R the other columns, and
    SNF(A) = diag(1, ..., 1, SNF(pi(R))), the 1s leading because 1
    divides every factor; a dropped identification column has pi = 0.
    Dropping zero columns and repeated columns of pi(R) leaves its column
    lattice L unchanged, and the nonzero factors depend on L alone:
    Z^classes / L is the sum of Z/d over them plus a free part, and their
    number is the rank of L. The zeros pad the diagonal to
    min(nrows, ncols) in ``_sparse_factors``. The Smith diagonal is
    unique, so the factors are byte-identical to those of the whole
    matrix.
    """
    parent = list(range(nrows))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    merges, rest = 0, []
    for col in columns:
        if len(col) == 2:
            (a, x), (b, y) = col
            if x + y == 0 and (x == 1 or x == -1):
                a, b = find(a), find(b)
                if a != b:
                    if a < b:
                        parent[b] = a
                    else:
                        parent[a] = b
                    merges += 1
                continue
        rest.append(col)
    if not merges:
        return 0, columns
    seen, out = set(), []
    for col in rest:
        acc = {}
        for i, x in col:
            i = find(i)
            acc[i] = acc.get(i, 0) + x
        col = [(i, x) for i, x in acc.items() if x]
        if col:
            key = frozenset(col)
            if key not in seen:
                seen.add(key)
                out.append(col)
    return merges, out


def _sparse_factors(columns, nrows) -> tuple[int, ...]:
    """Smith diagonal of the nrows x len(columns) matrix a given by its
    relation columns (see the module docstring), which are only read.

    ``_merge_identifications`` first: each merge is a factor 1, and the
    rest columns, rewritten on the class roots, form the core A' with
    A ~ diag(I_k, A'). Its nonempty rows go to ``_eliminate``, and only
    the nonzero factors of the core are kept, so the result is the merged
    1s, the core's nonzero factors, then zeros up to min(nrows, ncols):
    ``smith_normal_form(a).factors``, the Smith diagonal being unique. On
    the relation matrices of ``homology`` most columns are
    identifications: in the path-space oracle every path of positive
    length is identified with its range vertex, and what is left, repeats
    dropped, is the vertex presentation with its own identifications
    merged.

    The core goes sparsest first: its columns sorted by length, then its
    rows. ``_eliminate`` takes the first +-1 in row-major order, so it
    meets the units of short rows first, and a pivot on a short row adds
    few entries to the rows it clears. Permuting rows or columns is a
    unimodular change of basis, so the Smith diagonal, and with it every
    factor, is that of the core as given: the order changes only the
    work. ``sorted`` is stable, so the order, and so the work, is fixed
    by the input.
    """
    merges, rest = _merge_identifications(columns, nrows)
    rest = sorted(rest, key=len)
    rows = {}
    for j, col in enumerate(rest):
        for i, x in col:
            rows.setdefault(i, {})[j] = x
    factors = (1,) * merges
    if rows:
        core = _eliminate(sorted(rows.values(), key=len), range(len(rest)))
        factors += tuple(d for d in core.factors if d)
    return factors + (0,) * (min(nrows, len(columns)) - len(factors))


def cokernel(a: IntMatrix) -> FpAbelianGroup:
    """Z^nrows modulo the column span of a, in canonical form."""
    return _group(a.nrows, invariant_factors(a))


def sparse_cokernel(columns, nrows) -> FpAbelianGroup:
    """``cokernel`` of the nrows x len(columns) matrix given by its
    relation columns (see the module docstring), with no dense copy; the
    columns are only read."""
    return _group(nrows, _sparse_factors(columns, nrows))


def _group(nrows, factors) -> FpAbelianGroup:
    """Z^nrows modulo a relation matrix with Smith diagonal ``factors``,
    a tuple: the chain of 1s, the torsion, then the zeros."""
    end = len(factors) - factors.count(0)
    return FpAbelianGroup(rank=nrows - end,
                          torsion=factors[factors.count(1):end])


def hermite_row_basis(rows, ncols) -> IntMatrix:
    """Canonical row Hermite form of the lattice spanned by ``rows``.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    pivot columns strictly increase, zero rows are dropped. Two inputs span
    the same row lattice iff they produce equal outputs.
    """
    work = [list(r) for r in rows]
    m = len(work)
    r = 0
    for c in range(ncols):
        # gcd elimination in column c among rows >= r
        while True:
            best = None
            bi = -1
            for i in range(r, m):
                x = work[i][c]
                if x:
                    ax = -x if x < 0 else x
                    if best is None or ax < best:
                        best, bi = ax, i
            if best is None:
                break
            if bi != r:
                work[r], work[bi] = work[bi], work[r]
            if work[r][c] < 0:
                work[r] = [-x for x in work[r]]
            p = work[r][c]
            done = True
            for i in range(r + 1, m):
                if work[i][c]:
                    q = work[i][c] // p
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
                    if work[i][c]:
                        done = False
            if done:
                break
        if r < m and work[r][c]:
            p = work[r][c]
            for i in range(r):
                q = work[i][c] // p
                if q:
                    work[i] = [a - q * b for a, b in zip(work[i], work[r])]
            r += 1
    basis = tuple(tuple(row) for row in work[:r])
    return IntMatrix(basis, ncols)


def _left_kernel(dec: SmithDecomposition) -> IntMatrix:
    """Hermite basis (as rows) of {y : y @ a == 0}, a the decomposed matrix.

    u @ a == s @ v^-1, so y @ a == 0 iff y @ u^-1 vanishes on the rows of s
    with a nonzero factor: the rows of u whose factor is 0 or that lie past
    the diagonal span the left kernel, and only those rows are built."""
    factors = dec.factors
    m = len(dec.order)
    return hermite_row_basis(dec.u_rows(
        [i for i in range(m) if i >= len(factors) or factors[i] == 0]), m)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Hermite-reduced basis (as rows) of the integer kernel of a: the
    left kernel of a^T, since a @ x == 0 exactly when x @ a^T == 0."""
    return _left_kernel(smith_normal_form(a.transpose()))


def _strong_components(succ) -> list[list[int]]:
    """The strongly connected components of the digraph on range(n),
    n = len(succ), with an arc v -> w for each w in succ[v].

    Tarjan's algorithm with an explicit stack of (vertex, arc iterator)
    frames in place of recursion, so a path of any length costs no Python
    stack depth. index[v] is v's discovery number, low[v] the least
    discovery number of an unfinished vertex reached from v's subtree by
    one back or cross arc; v roots a component exactly when
    low[v] == index[v], and its component is then the vertices above it
    on ``stack``. Each arc is followed once. Components come out in
    reverse topological order: no arc leaves a component for a later one.
    """
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    where = [0] * n  # position on ``stack``
    done = [False] * n
    stack, comps = [], []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        where[root] = len(stack)
        stack.append(root)
        frames = [(root, iter(succ[root]))]
        while frames:
            v, arcs = frames[-1]
            for w in arcs:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    where[w] = len(stack)
                    stack.append(w)
                    frames.append((w, iter(succ[w])))
                    break
                if not done[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                frames.pop()
                if low[v] == index[v]:
                    comp = stack[where[v]:]
                    del stack[where[v]:]
                    for w in comp:
                        done[w] = True
                    comps.append(comp)
                elif low[v] < low[frames[-1][0]]:
                    low[frames[-1][0]] = low[v]
    return comps


def characteristic_polynomial(a: IntMatrix) -> tuple[int, ...]:
    """Monic characteristic polynomial det(tI - A), coefficients by
    descending degree: ``sparse_characteristic_polynomial`` of the
    nonzeros of A's rows, which are scanned once."""
    _require_square(a)
    return sparse_characteristic_polynomial(
        [[(j, x) for j, x in enumerate(row) if x] for row in a.rows])


def sparse_characteristic_polynomial(rows) -> tuple[int, ...]:
    """``characteristic_polynomial`` of the n x n matrix A, n = len(rows),
    whose row i has the nonzeros (j, A_ij) listed in rows[i], columns
    distinct; the rows are only read.

    The product is taken over the strongly connected components of A's
    nonzero pattern, the digraph with an arc i -> j where A_ij != 0.
    List the components in a topological order C_1, ..., C_r, every arc
    between two of them running from an earlier to a later one, and the
    vertices in that order, component by component. The permutation
    matrix P of this listing makes P A P^T block upper triangular: an
    entry below the diagonal blocks would be an arc from a later
    component to an earlier one. Its diagonal blocks are A[C, C], the
    rows and columns of the component C. det(tI - A) =
    det(P (tI - A) P^T) = det(tI - P A P^T), as det P det P^T = 1, and the
    determinant of a block triangular matrix is the product of the
    determinants of its diagonal blocks, so det(tI - A) is the product
    of det(tI - A[C, C]) over the components. Multiplication of
    polynomials commutes, so the order in which ``_strong_components``
    lists them does not matter.

    A component of one vertex v contributes t - A_vv, a factor t when v
    has no loop. Each other block gets its polynomial from
    ``_packed_characteristic_polynomial`` at its own size |C| and slot
    width w_C = bitlength(rho_C^|C|) + 1, rho_C the largest absolute row
    sum inside the block: the slot argument there holds for A[C, C] as a
    matrix in its own right, so every factor is exact, and so is their
    product. An entry between two components, that is an entry on no
    cycle, lies in no block and widens no slot. The one component of a
    strongly connected A is A itself and is not copied.
    """
    chi, zeros = [1], 0
    for comp in _strong_components([[j for j, _ in row] for row in rows]):
        if len(comp) == 1:
            v = comp[0]
            x = next((x for j, x in rows[v] if j == v), 0)
            if x:
                chi = _poly_mul(chi, [1, -x])
            else:
                zeros += 1
            continue
        if len(comp) == len(rows):
            block = rows
        else:
            local = {v: i for i, v in enumerate(comp)}
            block = [[(local[j], x) for j, x in rows[v] if j in local]
                     for v in comp]
        chi = _poly_mul(chi, _packed_characteristic_polynomial(block))
    return tuple(chi) + (0,) * zeros


def _poly_mul(p, q) -> list[int]:
    """The product of two polynomials, coefficients by descending degree."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def _packed_characteristic_polynomial(nonzeros) -> list[int]:
    """det(tI - A) for the n x n matrix A, n = len(nonzeros), given as in
    ``sparse_characteristic_polynomial``, from the power sums
    p_k = tr(A^k) by Newton's identities.

    Write det(tI - A) = t^n + c_1 t^(n-1) + ... + c_n. Newton's identities
    read k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1) for k = 1..n.
    Each c_k is an integer, being a coefficient of the determinant of a
    matrix of integer polynomials, so every division by k below is exact
    and ``ArithmeticError`` can only mean a bug.

    Row i of A^k is packed into one int with slots of w bits,
    Q_i = sum_j ((A^k)_ij + h) 2^(w j), where h = 2^(w-1) when A has a
    negative entry and h = 0 when A >= 0. With rho the largest absolute
    row sum of A (at least 1), the infinity norm is submultiplicative, so
    |(A^k)_ij| <= ||A^k|| <= rho^k <= rho^n for k <= n, and
    w = bitlength(rho^n) + 1 gives |(A^k)_ij| < 2^(w-1).

    No slot borrows or carries. Every digit (A^k)_ij + h lies in
    [0, 2^w): in (0, 2^w) when h = 2^(w-1), and in [0, 2^(w-1)) when
    h = 0, as A >= 0 makes A^k >= 0. The base-2^w expansion of a
    nonnegative int is unique, so these are the digits of Q_i, and slot i
    reads (Q_i >> w i) & (2^w - 1) = (A^k)_ii + h exactly: one shift and
    one mask. p_k is the sum of the n slots less n h.

    The products. Let H = sum_j h 2^(w j) (``fill`` below), the packed
    row with h in every slot, and P_j = Q_j - H the packed row of A^k
    itself. Packing is linear, so row i of A^(k+1) packs to
    sum_j A_ij P_j, and
    Q'_i = sum_j A_ij Q_j - (r_i - 1) H, with r_i = sum_j A_ij the row
    sum. This is an identity of ints, whatever sign the partial sums
    take. H = 0 when A >= 0, adjacency matrices among them, and then no
    correction is made; a zero row of A gives Q'_i = H.

    Cost: each of the n - 1 products costs nnz(A) big-int multiply-adds
    on ints of at most n w bits, an entry x = 1 adding Q_j without a
    multiply and each row starting from its first term, plus, only when
    A has a negative entry, one subtraction per row whose sum is not 1.
    Each power sum costs n shifts and masks; no int is added to read a
    slot, and no entry of A^k is handled on its own. When A >= 0, Q_i has
    no bits above its last nonzero slot, so a sparse A keeps its packed
    rows short. The width follows the bound rho^n, not the size the
    entries of A^k reach, so one heavy entry on a cycle widens every
    slot of its component: a cycle of n vertices with one edge of weight
    10^6 has entries of at most 20 bits but slots of about 20 n.
    """
    n = len(nonzeros)
    abs_sums = [sum(abs(x) for _, x in row) for row in nonzeros]
    row_sums = [sum(x for _, x in row) for row in nonzeros]
    rho = max([1] + abs_sums)
    w = (rho ** n).bit_length() + 1
    shifts = [w * i for i in range(n)]
    mask = (1 << w) - 1
    if abs_sums == row_sums:  # A >= 0
        h = fill = 0
        offsets = [0] * n
    else:
        h = 1 << (w - 1)
        fill = sum(h << s for s in shifts)
        offsets = [(r - 1) * fill for r in row_sums]
    power = [sum(x << shifts[j] for j, x in terms) + fill
             for terms in nonzeros]
    heads = [terms[0] if terms else None for terms in nonzeros]
    tails = [terms[1:] for terms in nonzeros]
    coeffs, sums = [1], []
    for k in range(1, n + 1):
        sums.append(sum(map(and_, map(rshift, power, shifts), repeat(mask)))
                    - n * h)
        t = sum(map(mul, coeffs, reversed(sums)))
        if t % k:
            raise ArithmeticError("power sum %d not divisible by %d" % (t, k))
        coeffs.append(-(t // k))
        if k < n:
            rows = []
            for head, tail, off in zip(heads, tails, offsets):
                if head is None:
                    rows.append(-off)
                    continue
                j, x = head
                acc = power[j] if x == 1 else x * power[j]
                for j, x in tail:
                    acc += power[j] if x == 1 else x * power[j]
                rows.append(acc - off if off else acc)
            power = rows
    return coeffs


def eventual_kernel(a: IntMatrix) -> IntMatrix:
    """Hermite basis (as rows) of the union of the kernels ker(a^k),
    read as ker(a^m) with m from the characteristic polynomial.

    Let z be the multiplicity of 0 as a root of chi_a = det(tI - a) and
    d = n - rank(a). Over Q, a has a Jordan form, and its blocks for the
    eigenvalue 0 have sizes b_1 >= ... >= b_d >= 1: there is one block per
    dimension of ker(a), so d of them, and together they span the
    generalized kernel, of dimension z. The chain ker(a) < ker(a^2) < ...
    grows strictly up to k* = b_1 and is constant from there (Fitting).
    The other d - 1 blocks have size at least 1, so
    k* = b_1 <= z - (d - 1) = m, and ker(a^m) = ker(a^k*) over Q. The
    integer kernels are those rational kernels intersected with Z^n, so
    they are equal too, and ``kernel_basis`` gives the Hermite basis of
    that lattice, which depends on the lattice alone. The rank over Z, the
    count of nonzero invariant factors, is the rank over Q. When z = 0, a
    is invertible over Q and the eventual kernel is 0.

    Cost: one characteristic polynomial, one Smith form without
    transforms for the rank, a^m by squaring and one kernel. m = z alone
    would also do, but a higher power has larger entries and costs its
    kernel more: on sparse matrices with row sums 2 it is the slower one.
    """
    n = a.nrows
    chi = characteristic_polynomial(a)  # checks that a is square
    # chi is monic, so its leading 1 ends the count at z <= n
    z = next(k for k, c in enumerate(reversed(chi)) if c)
    if not z:
        return IntMatrix((), n)
    rank = sum(1 for f in invariant_factors(a) if f)
    return kernel_basis(mat_pow(a, z - (n - rank) + 1))


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    _require_square(a)
    k = _require_int(k, "powers")
    if k < 0:
        raise ValueError("negative matrix power")
    out = IntMatrix.identity(a.nrows)
    base = a
    while k:
        if k & 1:
            out = out @ base
        k >>= 1
        if k:
            base = base @ base
    return out


def mat_pow_apply(a: IntMatrix, vec, k: int):
    """a^k applied to vec by k successive multiplications."""
    k = _require_int(k, "powers")
    if k < 0:
        raise ValueError("negative matrix power")
    vec = _vector_for(a, vec)
    if k > 1:
        _require_square(a)
    for _ in range(k):
        vec = a.apply(vec)
    return vec
