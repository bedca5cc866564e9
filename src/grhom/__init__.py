"""Graded homology of graph groupoids and eventual-conjugacy invariants.

Exact integer computations for finite directed weighted graphs: the
homology group at x = 1, the stage-graded module with its decidable
equality, diagonal-algebra normal forms, covering graphs, the stationary
dimension triple, and bounded shift-equivalence search.
"""

from .graph import (Edge, Graph, GraphFormatError, Path, StagedEdge,
                    StagedGraph, VertexClass, adjacency, classify_vertices,
                    covering_graph, enumerate_paths, graph_from_dict,
                    graph_to_dict, load_graph, make_path, parse_graph,
                    path_range, path_weight, serialize_graph)
from .intlinalg import (FpAbelianGroup, IntMatrix, SmithDecomposition,
                        characteristic_polynomial, cokernel, eventual_kernel,
                        hermite_row_basis, invariant_factors, kernel_basis,
                        mat_pow, mat_pow_apply, smith_normal_form)
from .diagonal import (DiagonalElement, SpecialEdgeChoice, expand, multiply,
                       normal_form, parse_diagonal_expression, to_h0_class)
from .homology import (H0Presentation, Verdict, h0, h0_bruteforce_oracle,
                       h0_class, h0_is_positive, h0_presentation)
from .graded import (DimensionTriple, GradedModule, StagedVector,
                     dimension_triple, equals, graded_module, is_positive,
                     lambda_map, parse_staged_expression, pushdown, sigma_map,
                     verify_exact_sequence, x_action)
from .dynamics import (GraphInvariants, InvariantReport, SearchBudget,
                       ShiftEquivalenceCertificate, eventual_conjugacy_verdict,
                       graph_invariants, nonzero_spectrum_fingerprint,
                       search_shift_equivalence, verify_shift_equivalence)

__all__ = [
    "Edge", "Graph", "GraphFormatError", "Path", "StagedEdge", "StagedGraph",
    "VertexClass", "adjacency", "classify_vertices", "covering_graph",
    "enumerate_paths", "graph_from_dict", "graph_to_dict", "load_graph",
    "make_path", "parse_graph", "path_range", "path_weight",
    "serialize_graph",
    "FpAbelianGroup", "IntMatrix", "SmithDecomposition",
    "characteristic_polynomial", "cokernel", "eventual_kernel",
    "hermite_row_basis", "invariant_factors", "kernel_basis", "mat_pow",
    "mat_pow_apply", "smith_normal_form",
    "DiagonalElement", "SpecialEdgeChoice", "expand", "multiply",
    "normal_form", "parse_diagonal_expression", "to_h0_class",
    "H0Presentation", "Verdict", "h0", "h0_bruteforce_oracle", "h0_class",
    "h0_is_positive", "h0_presentation",
    "DimensionTriple", "GradedModule", "StagedVector", "dimension_triple",
    "equals", "graded_module", "is_positive", "lambda_map",
    "parse_staged_expression", "pushdown", "sigma_map",
    "verify_exact_sequence", "x_action",
    "GraphInvariants", "InvariantReport", "SearchBudget",
    "ShiftEquivalenceCertificate", "eventual_conjugacy_verdict",
    "graph_invariants", "nonzero_spectrum_fingerprint",
    "search_shift_equivalence", "verify_shift_equivalence",
]

__version__ = "0.1.0"
