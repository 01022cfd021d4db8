"""Exact-arithmetic Frobenius charts, Givental reconstruction, and
tautological relations from pole cancellation along the discriminant."""

from .multipoly import MultiPoly, NonUnitError, root_of_rational
from .puiseux import INF, PuiseuxSeries, SeriesMatrix
from .frobenius import (ChartError, ChartExpansion, FrobeniusChart,
                        IdempotentFrame, NonSemisimpleError, idempotent_frame,
                        local_structure_probe, newton_puiseux_roots, psi0_frame)
from .graphs import (DecoratedGraph, StableGraph, StrataVector,
                     enumerate_decorated_basis, enumerate_stable_graphs,
                     forgetful_pushforward, gluing_pushforward, multiply_kappa,
                     multiply_psi)
from .intersect import (integrate_against_monomial, integrate_strata,
                        kappa_psi_integral, pairing_matrix, psi_integral)
from .reconstruct import (CohFTSpec, dilaton_leaf, edge_series,
                          genus_one_correlator, leg_series, reconstruct_class,
                          to_normalized_insertion)
from .relations import (RelationSet, close_relations, compare_spans,
                        extract_relations, verify_relations)
from .charts import extend_chart
from .rmatrix import (RMatrix, quotient_holomorphy, solve_2d_family,
                      solve_flatness)

__version__ = "0.1.0"
