"""Integer linear algebra that only the tests use.

``det`` checks unimodularity and characteristic polynomials;
``in_column_span`` decides membership in a column lattice, the reference
for the window oracle of the graded equality test;
``full_power_eventual_kernel`` is the eventual kernel read from a^n, the
reference for the early stop of ``eventual_kernel``; ``row_sum_two`` builds
the seeded sparse adjacency matrices of the eventual-kernel and
characteristic-polynomial tests; ``full_u`` is the row transform of a Smith
decomposition as a matrix, which the library keeps only as its log.
"""

import random

from grhom.intlinalg import (IntMatrix, SmithDecomposition, _int_vector,
                             kernel_basis, mat_pow, smith_normal_form)


def det(a: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination."""
    if a.nrows != a.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = a.nrows
    if n == 0:
        return 1
    m = [list(row) for row in a.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def in_column_span(a: IntMatrix, vec) -> bool:
    """Whether vec lies in the integer column span of a."""
    vec = _int_vector(vec)
    if len(vec) != a.nrows:
        raise ValueError("dimension mismatch: vector length %d, matrix %s x %s"
                         % (len(vec), a.nrows, a.ncols))
    dec = smith_normal_form(a)
    y = dec.u_apply(vec)
    limit = min(a.nrows, a.ncols)
    for i, yi in enumerate(y):
        d = dec.factors[i] if i < limit else 0
        if d == 0:
            if yi != 0:
                return False
        elif yi % d:
            return False
    return True


def full_u(dec: SmithDecomposition) -> IntMatrix:
    """The row transform u of ``dec`` as a matrix, every row walked back
    through the log."""
    m = len(dec.order)
    return IntMatrix(dec.u_rows(range(m)), m)


def full_power_eventual_kernel(a: IntMatrix) -> IntMatrix:
    """The eventual kernel as ker(a^n), n the size of a: the chain of
    kernels has stopped by then."""
    return kernel_basis(mat_pow(a, a.nrows))


def row_sum_two(seed, n):
    """n x n adjacency matrix with every row sum 2, targets drawn with
    repetition, so zero and repeated columns give nontrivial kernels."""
    rng = random.Random(seed)
    rows = [[0] * n for _ in range(n)]
    for row in rows:
        for _ in range(2):
            row[rng.randrange(n)] += 1
    return IntMatrix.from_rows(rows, n)
