"""Exact linear algebra over the integers.

Dense matrices of Python ints (arbitrary precision, never floats), Smith
normal form with its unimodular row transform, Hermite-reduced kernel bases,
eventual kernels of square matrices, and finitely generated abelian groups
presented as cokernels.

There is one dense Smith elimination, ``_diagonalize``, and two ways in.
``smith_normal_form`` runs it on the whole matrix. It tracks the row
transform u, never the column one, and runs a dense pivot rule: the
smallest nonzero |pivot| with a row-major tie-break, a nonnegative
diagonal, and the divisibility chain d1 | d2 | ... enforced, so u and the
factors are deterministic for a fixed input. Its updates are sparse-aware:
a row or column operation touches only the nonzeros of the pivot line, and
a unit pivot skips the divisibility scan. The skipped steps change no
entry, so u and the factors are those of the plain dense elimination. u
fixes the coordinates that ``homology.h0_class`` returns, so the pivot
rule is part of that output. Every kernel is a left kernel read from u by
``_left_kernel`` as a canonical Hermite basis, which does not depend on
the rule. ``invariant_factors`` (behind ``cokernel``) needs only the
diagonal. It scans A into sparse rows and hands them to
``_sparse_factors``. That eliminates +-1 pivots, always in a column
with the fewest nonzeros, each step unimodular, so
SNF(A) = diag(1, ..., 1, SNF(A')); it then runs ``_diagonalize`` on the
small core A' and drops its u. The Smith diagonal is unique, so both
ways in give the same factors.
``sparse_cokernel`` takes the sparse rows directly, for callers such as
``homology.h0_bruteforce_oracle`` that write their relations sparse; it
and ``cokernel`` share the elimination and the step from factors to a
group.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import add


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


def _sparse_product(nonzeros, right, ncols) -> list[list[int]]:
    """Rows of the product L R, with L given by the nonzeros [(k, x), ...]
    of each of its rows and R by its rows ``right`` of length ncols. Row i
    is the sum of x * right[k] over the nonzeros of row i of L, added one
    term at a time, and x = 1 is not multiplied out."""
    out = []
    for terms in nonzeros:
        if not terms:
            out.append([0] * ncols)
            continue
        k, x = terms[0]
        acc = list(right[k]) if x == 1 else [x * y for y in right[k]]
        for k, x in terms[1:]:
            acc = (list(map(add, acc, right[k])) if x == 1
                   else [s + x * y for s, y in zip(acc, right[k])])
        out.append(acc)
    return out


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
        """Product through ``_sparse_product``, so the cost follows the
        nonzeros of self, not its size."""
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch: %s @ %s" % (self.shape, other.shape))
        nonzeros = [[(k, x) for k, x in enumerate(row) if x]
                    for row in self.rows]
        out = _sparse_product(nonzeros, other.rows, other.ncols)
        return IntMatrix(tuple(map(tuple, out)), other.ncols)

    def apply(self, vec):
        """Matrix-vector product, vec given as a sequence of ints."""
        vec = _int_vector(vec)
        if len(vec) != self.ncols:
            raise ValueError("dimension mismatch: %s applied to length %d"
                             % (self.shape, len(vec)))
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
    neither v nor the diagonal matrix is kept.

    ``factors`` is the full Smith diagonal (length min(nrows, ncols)): the
    divisibility chain d1 | d2 | ... | dk followed by zeros, all nonnegative.
    """

    u: IntMatrix
    factors: tuple[int, ...]


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


def _find_pivot(s, t, m, n):
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


def _diagonalize(a: IntMatrix):
    """The dense Smith elimination; returns (u rows, factors).

    Each entry gets the arithmetic of the plain dense elimination, in the
    same order; only updates by zero and the scan under a unit pivot are
    skipped (see the module docstring). The column operations act on the
    working copy of a alone, so the column transform is never built.
    """
    m, n = a.nrows, a.ncols
    s = [list(row) for row in a.rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def nonzeros(line):
        return [(k, x) for k, x in enumerate(line) if x]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = _find_pivot(s, t, m, n)
        if piv is None:
            break
        while True:
            pi, pj = piv
            if pi != t:
                s[t], s[pi] = s[pi], s[t]
                u[t], u[pi] = u[pi], u[t]
            if pj != t:
                for row in s:
                    row[t], row[pj] = row[pj], row[t]
            if s[t][t] < 0:
                s[t] = [-x for x in s[t]]
                u[t] = [-x for x in u[t]]
            p = s[t][t]
            dirty = False
            # row i += q * row t; row t is fixed inside this pass
            srow = nonzeros(s[t])
            urow = nonzeros(u[t])
            for i in range(m):
                if i != t and s[i][t]:
                    q = -(s[i][t] // p)
                    si = s[i]
                    for j, x in srow:
                        si[j] += q * x
                    ui = u[i]
                    for j, x in urow:
                        ui[j] += q * x
                    if si[t]:
                        dirty = True
            if not dirty:
                # col j += q * col t; col t is fixed inside this pass
                scol = nonzeros(row[t] for row in s)
                st = s[t]
                for j in range(n):
                    if j != t and st[j]:
                        q = -(st[j] // p)
                        for i, x in scol:
                            s[i][j] += q * x
                        if st[j]:
                            dirty = True
            if not dirty:
                break
            piv = _find_pivot(s, t, m, n)
        # force divisibility: pivot must divide every remaining entry
        p = s[t][t]
        offender = None
        if p != 1:
            for i in range(t + 1, m):
                row = s[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
        if offender is not None:
            # row t += row offender
            for rows in (s, u):
                rows[t] = [x + y for x, y in zip(rows[t], rows[offender])]
            continue
        t += 1
    return u, tuple(s[i][i] for i in range(limit))


def smith_normal_form(a: IntMatrix) -> SmithDecomposition:
    """The Smith diagonal of a and its row transform u, with deterministic
    pivoting; u @ a @ v is diagonal for a unimodular v that is not kept."""
    u, factors = _diagonalize(a)
    return SmithDecomposition(u=IntMatrix(tuple(map(tuple, u)), a.nrows),
                              factors=factors)


def invariant_factors(a: IntMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith form of a, without the transforms: the nonzero
    rows of a, scanned once, go to ``_sparse_factors``. The result equals
    ``smith_normal_form(a).factors``."""
    rows = {}
    for i, row in enumerate(a.rows):
        nz = {j: x for j, x in enumerate(row) if x}
        if nz:
            rows[i] = nz
    return _sparse_factors(rows, a.nrows, a.ncols)


def _sparse_factors(rows, nrows, ncols) -> tuple[int, ...]:
    """Smith diagonal of the nrows x ncols matrix a whose nonzero entries
    are ``rows``: row index -> {column: entry}, zero entries and rows
    without any left out. The dicts are consumed.

    Sparse unit-pivot elimination first, dense Smith on what is left. A
    unit pivot a[i][j] = u = +-1 subtracts u * a[k][j] times row i from
    every other row k, which clears column j outside row i; column
    operations with the unit would clear the rest of row i without
    touching any other row, so row i and column j are dropped and a factor
    1 is counted. Every step is an elementary unimodular operation, so
    after k unit pivots A ~ diag(I_k, A') and SNF(A) = diag(1, ..., 1,
    SNF(A')), the 1s leading because 1 divides every factor. The core A'
    goes to ``_diagonalize`` without its zero rows and columns, and only
    the factors of that call are kept; the core is small on the relation
    matrices of ``homology``, which have a unit in nearly every column.

    Pivot rule: columns sit in a lazy heap keyed (nonzero count, column).
    The loop pops the column with the fewest nonzeros, drops the key if
    it no longer matches the column's count, and pivots on a unit of that
    column, in the shortest row that has one; a column without a unit is
    skipped. The Smith diagonal is unique, so the rule affects speed only,
    never the result, which equals ``smith_normal_form(a).factors``: the
    units, the nonzero core factors, then zeros up to min(nrows, ncols).

    A step writes entries only in the columns of the pivot row, and only
    their counts change, so each of those columns is pushed again at its
    new count. Every other column keeps its entries and its current key,
    or was popped without a unit and still has none. So a column holding a
    unit always has a current key, and the loop ends with no unit left.
    """
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    heap = [(len(col), j) for j, col in cols.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        count, j = heapq.heappop(heap)
        col = cols.get(j)
        if col is None or len(col) != count:
            continue
        candidates = [(len(rows[k]), k) for k in col if rows[k][j] in (1, -1)]
        if not candidates:
            continue
        i = min(candidates)[1]
        prow = rows.pop(i)
        u = prow.pop(j)
        for jj in prow:
            cols[jj].discard(i)
        del cols[j]
        col.discard(i)
        for k in col:
            row = rows[k]
            q = row.pop(j) * u
            for jj, x in prow.items():
                y = row.get(jj, 0) - q * x
                if y:
                    if jj not in row:
                        cols[jj].add(k)
                    row[jj] = y
                else:
                    del row[jj]
                    cols[jj].discard(k)
            if not row:
                del rows[k]
        for jj in prow:
            if cols[jj]:
                heapq.heappush(heap, (len(cols[jj]), jj))
        units += 1
    factors = (1,) * units
    if rows:
        core_cols = sorted(j for j, col in cols.items() if col)
        core = IntMatrix(tuple(tuple(row.get(j, 0) for j in core_cols)
                               for row in rows.values()), len(core_cols))
        factors += tuple(d for d in _diagonalize(core)[1] if d)
    return factors + (0,) * (min(nrows, ncols) - len(factors))


def cokernel(a: IntMatrix) -> FpAbelianGroup:
    """Z^nrows modulo the column span of a, in canonical form."""
    return _group(a.nrows, invariant_factors(a))


def sparse_cokernel(rows, nrows, ncols) -> FpAbelianGroup:
    """``cokernel`` of the nrows x ncols matrix given by its nonzero rows,
    as ``_sparse_factors`` takes them, with no dense copy. The dicts are
    consumed."""
    return _group(nrows, _sparse_factors(rows, nrows, ncols))


def _group(nrows, factors) -> FpAbelianGroup:
    """Z^nrows modulo a relation matrix with Smith diagonal ``factors``."""
    nonzero = [d for d in factors if d]
    return FpAbelianGroup(rank=nrows - len(nonzero),
                          torsion=tuple(d for d in nonzero if d > 1))


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
    the diagonal span the left kernel."""
    factors = dec.factors
    return hermite_row_basis(
        [row for i, row in enumerate(dec.u.rows)
         if i >= len(factors) or factors[i] == 0], dec.u.ncols)


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Hermite-reduced basis (as rows) of the integer kernel of a: the
    left kernel of a^T, since a @ x == 0 exactly when x @ a^T == 0."""
    return _left_kernel(smith_normal_form(a.transpose()))


def eventual_kernel(a: IntMatrix) -> IntMatrix:
    """Basis of the union of ker(a^k); the chain stabilizes by k = size."""
    if a.nrows != a.ncols:
        raise ValueError("eventual kernel requires a square matrix, got %s"
                         % (a.shape,))
    return kernel_basis(mat_pow(a, a.nrows))


def mat_pow(a: IntMatrix, k: int) -> IntMatrix:
    if a.nrows != a.ncols:
        raise ValueError("matrix power requires a square matrix, got %s"
                         % (a.shape,))
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
    if k < 0:
        raise ValueError("negative matrix power")
    vec = _int_vector(vec)
    if k == 0:
        return vec
    if len(vec) != a.ncols:
        raise ValueError("dimension mismatch: %s applied to length %d"
                         % (a.shape, len(vec)))
    if k > 1 and a.nrows != a.ncols:
        raise ValueError("iterated application requires a square matrix")
    for _ in range(k):
        vec = a.apply(vec)
    return vec
