import itertools
from fractions import Fraction as F

import pytest

from tautrel.graphs import (DecoratedGraph, StableGraph, StrataVector,
                            cell_basis, forgetful_pushforward)
from tautrel.intersect import (_PSI_CACHE, integrate_against_monomial,
                               integrate_strata, kappa_psi_integral,
                               pairing_matrix, psi_integral,
                               smooth_monomial_basis)


GOLDEN = [
    (0, (0, 0, 0), F(1)),
    (0, (1, 0, 0, 0), F(1)),
    (0, (2, 0, 0, 0, 0), F(1)),
    (0, (1, 1, 0, 0, 0), F(2)),
    (1, (1,), F(1, 24)),
    (1, (2, 0), F(1, 24)),
    (1, (1, 1), F(1, 24)),
    (1, (2, 1, 0), F(1, 12)),
    (1, (1, 1, 1), F(1, 12)),
    (1, (3, 0, 0), F(1, 24)),
    (2, (4,), F(1, 1152)),
    (2, (5, 0), F(1, 1152)),
    (2, (4, 1), F(1, 384)),
    (2, (3, 2), F(29, 5760)),
    (3, (7,), F(1, 82944)),
]


def test_psi_golden_values():
    for g, exps, want in GOLDEN:
        assert psi_integral(g, exps) == want


def test_dimension_mismatch_is_zero():
    assert psi_integral(1, (2,)) == 0
    assert psi_integral(0, (0, 0, 0, 0)) == 0
    assert psi_integral(2, ()) == 0


def test_string_and_dilaton_over_cache():
    # run a few values to populate, then check both equations exhaustively
    psi_integral(2, (3, 2))
    psi_integral(2, (2, 2, 1))
    psi_integral(1, (1, 1, 1))
    for (g, exps), value in sorted(_PSI_CACHE.items()):
        n = len(exps)
        # string: <tau_0 prod tau_a>_g = sum_j <... tau_{a_j - 1} ...>
        if 2 * g - 2 + (n + 1) > 0:
            lhs = psi_integral(g, exps + (0,))
            rhs = sum(psi_integral(g, exps[:j] + (exps[j] - 1,) + exps[j + 1:])
                      for j in range(n) if exps[j] >= 1)
            assert lhs == rhs, (g, exps)
        # dilaton: <tau_1 prod tau_a>_g = (2g - 2 + n) <prod tau_a>_g
        lhs = psi_integral(g, exps + (1,))
        assert lhs == (2 * g - 2 + n) * value, (g, exps)


def test_kappa_values():
    assert kappa_psi_integral(1, [0], [1]) == F(1, 24)
    # Mumford's classical value on the genus-2 space
    assert kappa_psi_integral(2, [], [1, 1, 1]) == F(43, 2880)
    assert kappa_psi_integral(2, [], [3]) == F(1, 1152)


def test_kappa_forgetful_roundtrip_exact():
    # integrating the pushforward of a psi^(a+1)-monomial with the partition
    # rule must reproduce the psi-integral upstairs (push-pull identity)
    for g, n, kappas in [(1, 1, [1]), (2, 0, [1, 2]), (2, 0, [1, 1, 1]),
                         (1, 2, [1, 1]), (1, 1, [1, 1])]:
        k = len(kappas)
        leg_psi = {n + i + 1: kappas[i] + 1 for i in range(k)}
        v = StrataVector.single(DecoratedGraph.smooth(g, n + k, leg_psi=leg_psi))
        for _ in range(k):
            v = forgetful_pushforward(v)
        total = F(0)
        for dg, c in v.terms.items():
            total += c * kappa_psi_integral(
                g, [dg.leg_exponent(l) for l in range(1, n + 1)], dg.kappa[0])
        assert total == psi_integral(
            g, tuple([0] * n + [a + 1 for a in kappas]))


def test_integrate_strata_m11():
    kappa1 = StrataVector.single(DecoratedGraph.smooth(1, 1, kappa=(1,)))
    assert integrate_strata(kappa1) == F(1, 24)
    psi1 = StrataVector.single(DecoratedGraph.smooth(1, 1, leg_psi={1: 1}))
    assert integrate_strata(psi1) == F(1, 24)
    # raw gluing pushforward of the loop graph integrates to 1; the divisor
    # class delta_0 is half of it and (1/12) int delta_0 = 1/24
    loop = StrataVector.single(DecoratedGraph(StableGraph([0], [[1]], [(0, 0)])))
    assert integrate_strata(loop) == 1
    delta0 = loop.scale(F(1, 2))
    assert integrate_strata(delta0) == F(1, 2)
    assert integrate_strata(delta0) * F(1, 12) == F(1, 24)


def test_integrate_fundamental_03():
    fund = StrataVector.single(DecoratedGraph.smooth(0, 3))
    assert integrate_strata(fund) == 1


def test_integrate_requires_top_codim():
    fund = StrataVector.single(DecoratedGraph.smooth(1, 1))
    with pytest.raises(ValueError):
        integrate_strata(fund)


def test_integrate_linear():
    a = StrataVector.single(DecoratedGraph.smooth(1, 1, leg_psi={1: 1}), F(3))
    b = StrataVector.single(DecoratedGraph.smooth(1, 1, kappa=(1,)), F(-3))
    assert integrate_strata(a + b) == 0


def test_pairing_matrix_m11():
    rows, cols, matrix = pairing_matrix(1, 1, 1)
    assert len(cols) == 1 and cols[0].codim() == 0
    values = {str(r): matrix[i][0] for i, r in enumerate(rows)}
    got = sorted(matrix[i][0] for i in range(len(rows)))
    assert got == [F(1, 24), F(1, 24), F(1)]


def test_pairing_matrix_04():
    rows, cols, matrix = pairing_matrix(0, 4, 1)
    # codim-1 generators against the fundamental: the column of degrees
    assert all(len(r) == 1 for r in matrix)
    assert {matrix[i][0] for i in range(len(rows))} == {F(1)}
    # the classical relation psi_1 - D(1,2|3,4) pairs to zero
    psi1 = StrataVector.single(DecoratedGraph.smooth(0, 4, leg_psi={1: 1}))
    d12 = StrataVector.single(
        DecoratedGraph(StableGraph([0, 0], [[1, 2], [3, 4]], [(0, 1)])))
    rel = psi1 - d12
    fund = smooth_monomial_basis(0, 4, 0)[0]
    # the pairing check reads the monomials through the memoized matrix
    assert cols == smooth_monomial_basis(0, 4, 0) == (fund,)
    assert pairing_matrix(0, 4, 1) is pairing_matrix(0, 4, 1)
    assert integrate_against_monomial(rel, fund) == 0


@pytest.mark.parametrize("g, n", [(0, 4), (0, 5), (1, 1), (1, 2), (2, 0),
                                  (3, 1)])
def test_smooth_monomial_basis_is_the_smooth_part_of_the_cell_basis(g, n):
    # the eight cells' types at every codim up to 2, the codims their
    # pairing matrices read, and (3, 1) below its dimension
    for codim in range(3):
        filtered = tuple(dg for dg in cell_basis((g, n, codim))[0]
                         if dg.graph.num_vertices == 1 and not dg.graph.edges)
        assert smooth_monomial_basis(g, n, codim) == filtered
