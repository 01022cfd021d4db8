"""Genus-one reconstruction on the 2-dimensional family.

The graph sum at (g, n) = (1, 1) has two stable graphs: the smooth vertex
(contributing psi- and kappa-terms) and the self-loop (the boundary divisor).
The coefficients are exact Laurent series in t; their integral against
int psi = int kappa = (1/12) int delta_0 = 1/24 equals minus the gamma-series
of the family R-matrix, matching the closed genus-one formula
dG = (1/48) sum dlog Delta_i + (1/2) sum r_ii du_i exactly.
"""

from tautrel.charts import family_expansion
from tautrel.frobenius import idempotent_frame
from tautrel.intersect import integrate_strata
from tautrel.multipoly import MultiPoly
from tautrel.reconstruct import (CohFTSpec, genus_one_correlator,
                                 reconstruct_class, to_normalized_insertion)
from tautrel.rmatrix import solve_flatness

t = MultiPoly.var("t")


def main():
    for f in (t, t * (t + 1)):
        print("== f =", f)
        frame = idempotent_frame(family_expansion(f, trunc=9))
        spec = CohFTSpec(frame, solve_flatness(frame, K=2))
        cls = reconstruct_class(spec, 1, 1,
                                [to_normalized_insertion(frame, [0, 1])], 1)
        for dg, coeff in sorted(cls.terms.items(), key=lambda kv: str(kv[0])):
            kind = ("boundary" if dg.graph.edges
                    else "kappa_1" if dg.kappa[0] else
                    "psi_1" if dg.leg_psi else "fundamental")
            print("  %-11s %s" % (kind, coeff.truncate(3)))
        integral = integrate_strata(cls.codim_part(1))
        print("  integral           :", integral.truncate(3))
        print("  closed genus-1 form:", genus_one_correlator(spec, [0, 1]).truncate(3))
        print()


if __name__ == "__main__":
    main()
