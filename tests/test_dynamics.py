import json
from random import Random

import pytest

from grhom.corpus import random_primitive_graph
from grhom.dynamics import (SearchBudget, ShiftEquivalenceCertificate,
                            characteristic_polynomial,
                            eventual_conjugacy_verdict, graph_invariants,
                            nonzero_spectrum_fingerprint,
                            search_shift_equivalence, verify_shift_equivalence)
from grhom.graded import dimension_triple
from grhom.graph import adjacency, graph_from_dict, graph_to_dict
from grhom.homology import Verdict, h0
from grhom.intlinalg import IntMatrix


def mat(rows):
    return IntMatrix.from_rows(rows)


def permuted(g):
    """Same graph with the vertex list reversed; edges untouched."""
    d = graph_to_dict(g)
    d["vertices"] = list(reversed(d["vertices"]))
    return graph_from_dict(d)


A2 = mat([[2]])
A3 = mat([[3]])
FULL2 = mat([[1, 1], [1, 1]])


class TestVerify:
    def test_doubling_vs_full_shift(self):
        cert = ShiftEquivalenceCertificate(r=mat([[1, 1]]),
                                           s=mat([[1], [1]]), lag=1)
        assert verify_shift_equivalence(A2, FULL2, cert)

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


class TestVerdictPipeline:
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
