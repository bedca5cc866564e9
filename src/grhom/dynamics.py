"""Shift-equivalence certificates and the eventual-conjugacy pipeline.

Two square nonnegative integer matrices A and B are shift equivalent with
lag l when nonnegative integer matrices R and S satisfy

    A R = R B,   B S = S A,   R S = A^l,   S R = B^l.

For the edge shifts of finite directed graphs this is equivalent to eventual
conjugacy, and equivalent again to an order and automorphism preserving
isomorphism of the stationary dimension triples. No general decision
procedure is attempted here: certificates are verified exactly, searched for
inside an explicit finite budget, and cheap necessary invariants (the
homology group at x = 1 and the nonzero part of the spectrum) separate
inequivalent pairs quickly. A failed search is reported as Unknown, never as
a proof of inequivalence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .graph import Graph, adjacency, check_unit_sink_free
from .homology import h0_presentation
from .intlinalg import (FpAbelianGroup, IntMatrix, _require_int,
                        _require_square, characteristic_polynomial,
                        kernel_basis, mat_pow,
                        sparse_characteristic_polynomial, sparse_cokernel)


@dataclass(frozen=True)
class ShiftEquivalenceCertificate:
    """Witness (R, S, lag) for shift equivalence of two adjacency matrices."""

    r: IntMatrix
    s: IntMatrix
    lag: int

    def __post_init__(self):
        _require_int(self.lag, "lags")
        if self.lag < 1:
            raise ValueError("lag must be at least 1, got %d" % self.lag)

    def to_dict(self) -> dict:
        return {
            "R": self.r.to_decimal_rows(),
            "S": self.s.to_decimal_rows(),
            "lag": self.lag,
        }


@dataclass(frozen=True)
class SearchBudget:
    """Bounds for the certificate search."""

    max_lag: int
    entry_bound: int

    def __post_init__(self):
        _require_int(self.max_lag, "lags")
        _require_int(self.entry_bound, "entry bounds")
        if self.max_lag < 1:
            raise ValueError("max_lag must be at least 1")
        if self.entry_bound < 0:
            raise ValueError("entry_bound must be nonnegative")

    def to_dict(self) -> dict:
        return {"max_lag": self.max_lag, "entry_bound": self.entry_bound}


def verify_shift_equivalence(a: IntMatrix, b: IntMatrix,
                             cert: ShiftEquivalenceCertificate) -> bool:
    """Exact check of the four shift-equivalence equations plus positivity."""
    _require_square(a)
    _require_square(b, "B")
    n, m = a.nrows, b.nrows
    if cert.r.shape != (n, m):
        raise ValueError("R has shape %s x %s, expected %s x %s"
                         % (cert.r.nrows, cert.r.ncols, n, m))
    if cert.s.shape != (m, n):
        raise ValueError("S has shape %s x %s, expected %s x %s"
                         % (cert.s.nrows, cert.s.ncols, m, n))
    if not (cert.r.is_nonneg() and cert.s.is_nonneg()):
        return False
    if a @ cert.r != cert.r @ b:
        return False
    if b @ cert.s != cert.s @ a:
        return False
    return (cert.r @ cert.s == mat_pow(a, cert.lag)
            and cert.s @ cert.r == mat_pow(b, cert.lag))


def _intertwiners(a: IntMatrix, b: IntMatrix, bound: int) -> list[IntMatrix]:
    """Every n x m matrix R with entries in [0, bound] and a R = R b, in
    colexicographic order of the row-major entry tuple (the last entry is
    the most significant); see ``search_shift_equivalence``."""
    n, m = a.nrows, b.nrows
    size = n * m
    # unknown t is entry size-1-t of the row-major R, so the lexicographic
    # order of unknown vectors is the colexicographic order of R
    eqs = []
    for i in range(n):
        for j in range(m):
            eq = [0] * size
            for k in range(n):
                eq[size - 1 - k * m - j] += a.rows[i][k]
            for k in range(m):
                eq[size - 1 - i * m - k] -= b.rows[k][j]
            eqs.append(tuple(eq))
    basis = kernel_basis(IntMatrix(tuple(eqs), size)).rows
    pivots = [next(c for c, x in enumerate(row) if x) for row in basis]
    ends = pivots[1:] + [size]
    # the partial solutions after each basis row, level by level, each
    # parent's children in ascending z: the order a depth-first walk gives
    partial = [[0] * size]
    for row, c, end in zip(basis, pivots, ends):
        p = row[c]
        nxt = []
        for y in partial:
            for z in range(-(y[c] // p), (bound - y[c]) // p + 1):
                x = [yt + z * kt for yt, kt in zip(y, row)]
                # unknowns c..end-1 are final: later rows vanish there
                if all(0 <= x[t] <= bound for t in range(c + 1, end)):
                    nxt.append(x)
        partial = nxt
    flats = (y[::-1] for y in partial)
    return [IntMatrix(tuple(tuple(f[i * m:(i + 1) * m]) for i in range(n)), m)
            for f in flats]


def search_shift_equivalence(a: IntMatrix, b: IntMatrix, max_lag: int,
                             entry_bound: int):
    """First verifying certificate in deterministic order, or None.

    Order: lag ascending, then the concatenated (R entries, S entries)
    tuple in colexicographic order, which makes S the outer loop. Candidate
    lists are the solutions of the lag-independent intertwining equations
    a R = R b and b S = S a with entries in [0, entry_bound]. None means
    the budget was exhausted, not that no certificate exists.

    The candidates are lattice points, not a filtered product of all
    (entry_bound + 1)^(nm) matrices. a R = R b is the linear system
    (I (x) a - b^T (x) I) vec(R) = 0 over the integers; ``kernel_basis``
    gives the Hermite basis K of its integer kernel, with positive pivots
    p_1, ..., p_d in strictly increasing columns c_1 < ... < c_d and zeros
    left of each pivot. Every integer solution is z K for a unique integer
    vector z, because K is a basis of the kernel lattice. In z K, column c_i
    reads base_i + z_i p_i, with base_i fixed by z_1, ..., z_{i-1}, and
    columns c_i to c_{i+1} - 1 depend on z_1, ..., z_i only. So
    0 <= base_i + z_i p_i <= entry_bound leaves finitely many z_i, the
    walk over them misses no bounded solution, and each partial z is cut
    as soon as one of its final columns leaves [0, entry_bound]. The
    unknowns are the entries of R in reverse row-major order, so the first
    column that differs between two solutions is set by the first z_i that
    differs, and increases with it (p_i > 0): ascending z, level by level,
    yields the lexicographic order of reversed entry tuples, which is the
    colexicographic order of R.
    """
    _require_square(a)
    _require_square(b, "B")
    SearchBudget(max_lag, entry_bound)  # checks both bounds
    r_valid = _intertwiners(a, b, entry_bound)
    s_valid = _intertwiners(b, a, entry_bound)
    for lag in range(1, max_lag + 1):
        al = mat_pow(a, lag)
        bl = mat_pow(b, lag)
        for s in s_valid:
            for r in r_valid:
                if r @ s == al and s @ r == bl:
                    return ShiftEquivalenceCertificate(r=r, s=s, lag=lag)
    return None


def nonzero_spectrum_fingerprint(a: IntMatrix) -> tuple[int, ...]:
    """Characteristic polynomial with every factor of t divided out.

    Equal fingerprints are necessary for shift equivalence: the nonzero
    spectrum with multiplicities is preserved. Monic, so the canonical
    leading coefficient is 1; the zero-dimensional matrix gives (1,).
    """
    return _without_t(characteristic_polynomial(a))


def _without_t(chi: tuple[int, ...]) -> tuple[int, ...]:
    """chi with its trailing zero coefficients, the factors t, removed."""
    coeffs = list(chi)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _adjacency_rows(g: Graph) -> list[tuple[tuple[int, int], ...]]:
    """The nonzeros (j, A_ij) of each row of ``adjacency(g)``, read from
    ``Graph.out_arcs``, with no dense matrix."""
    return [tuple(Counter(j for j, _ in arcs).items()) for arcs in g.out_arcs]


@dataclass(frozen=True)
class GraphInvariants:
    """Order-independent invariants of one graph's edge shift."""

    h0_group: FpAbelianGroup
    spectrum: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "h0_group": self.h0_group.to_dict(),
            "spectrum": [str(c) for c in self.spectrum],
        }


def graph_invariants(g: Graph) -> GraphInvariants:
    """The two invariants the comparison pipeline distinguishes by: the
    homology group and the nonzero-spectrum fingerprint.

    The group is ``homology.h0(g)``, but read from the untracked cokernel
    of the presentation's relation columns: nothing here reads class
    coordinates, so the logged elimination that ``h0`` shares with the
    class queries is neither run nor kept on the presentation. The Smith
    diagonal is unique, so both give the same group. The fingerprint is
    ``nonzero_spectrum_fingerprint(adjacency(g))``, but read from the
    sparse rows of A, so no dense n x n matrix is built."""
    pres = h0_presentation(g)
    return GraphInvariants(
        h0_group=sparse_cokernel(pres.relation_columns,
                                 len(pres.vertex_order)),
        spectrum=_without_t(
            sparse_characteristic_polynomial(_adjacency_rows(g))))


@dataclass(frozen=True)
class InvariantReport:
    """Outcome of comparing two edge shifts."""

    left: GraphInvariants
    right: GraphInvariants
    verdict: str
    distinguished_by: str | None
    certificate: ShiftEquivalenceCertificate | None
    budget: SearchBudget

    def to_dict(self) -> dict:
        return {
            "left": self.left.to_dict(),
            "right": self.right.to_dict(),
            "verdict": self.verdict,
            "distinguished_by": self.distinguished_by,
            "certificate": (self.certificate.to_dict()
                            if self.certificate else None),
            "budget": self.budget.to_dict(),
        }


def eventual_conjugacy_verdict(g1: Graph, g2: Graph,
                               budget: SearchBudget) -> InvariantReport:
    """Three-stage comparison of two edge shifts.

    Cheap necessary invariants first: the nonzero-spectrum fingerprint, then
    the homology group; either mismatch settles the question negatively.
    Equal adjacency matrices settle it positively with the identity
    certificate (R = A, S = I, lag 1). Otherwise a bounded certificate
    search runs; exhausting the budget yields Unknown with the budget
    echoed, which decides nothing.
    """
    check_unit_sink_free(g1, "first graph: an edge shift")
    check_unit_sink_free(g2, "second graph: an edge shift")
    left = graph_invariants(g1)
    right = graph_invariants(g2)

    def report(verdict, distinguished_by=None, certificate=None):
        return InvariantReport(left=left, right=right, verdict=verdict,
                               distinguished_by=distinguished_by,
                               certificate=certificate, budget=budget)

    if left.spectrum != right.spectrum:
        return report("Distinguished", distinguished_by="spectrum")
    if left.h0_group != right.h0_group:
        return report("Distinguished", distinguished_by="h0")
    a = adjacency(g1)
    b = adjacency(g2)
    if a == b:
        ident = IntMatrix.identity(a.nrows)
        return report("EventuallyConjugate",
                      certificate=ShiftEquivalenceCertificate(r=a, s=ident,
                                                              lag=1))
    cert = search_shift_equivalence(a, b, budget.max_lag, budget.entry_bound)
    if cert is not None:
        return report("EventuallyConjugate", certificate=cert)
    return report("Unknown")
