import itertools
import random
from fractions import Fraction as F

import pytest

from tautrel.graphs import (DecoratedGraph, StableGraph, StrataVector,
                            cell_basis, forgetful_pushforward,
                            multiply_kappa, multiply_psi)
from tautrel.intersect import (_PSI_CACHE, _kappa_psi_integral,
                               integrate_against_monomial, integrate_strata,
                               kappa_psi_integral, pairing_matrix,
                               psi_integral, smooth_monomial_basis)
from tautrel.relations import verify_vector


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
                g, [dict(dg.leg_psi).get(l, 0) for l in range(1, n + 1)],
                dg.kappa[0])
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


def _chain_pairing(vector, monomial):
    """The partial pairing as a chain of strata operations, kept as the
    oracle of the one-pass pairing: multiply by the monomial's psi powers
    and kappas, keep the top codimension, and integrate each term as the
    product over its vertices, read from their markings."""
    out = vector
    for leg, e in monomial.leg_psi:
        out = multiply_psi(out, leg, e)
    for a in monomial.kappa[0]:
        out = multiply_kappa(out, a)
    total = F(0)
    for dg, coeff in out.codim_part(3 * vector.g - 3 + vector.n).terms.items():
        graph, value = dg.graph, F(1)
        psi = dict(dg.leg_psi)
        for v in range(graph.num_vertices):
            exps = [psi.get(mk[1], 0) if mk[0] == "leg"
                    else dg.edge_psi[mk[1]][mk[2]]
                    for mk in graph.vertex_markings(v)]
            value *= kappa_psi_integral(graph.genera[v], exps, dg.kappa[v])
        total += coeff * value
    return total


@pytest.mark.parametrize("cell", [
    (0, 4, 1), (0, 5, 1), (0, 5, 2), (1, 1, 1), (1, 2, 1), (1, 2, 2),
    (2, 0, 1), (2, 0, 2), (1, 3, 1), (1, 3, 2), (2, 1, 1), (2, 1, 2),
    (3, 0, 2)], ids=lambda cell: "%d-%d-%d" % cell)
def test_pairing_matrix_matches_the_chain(cell):
    rows, cols, matrix = pairing_matrix(*cell)
    assert matrix == tuple(
        tuple(_chain_pairing(StrataVector.single(r), c) for c in cols)
        for r in rows)
    assert all(type(x) is F for row in matrix for x in row)


def test_pairing_of_mixed_codim_vectors_matches_the_chain():
    # a random rational (0, 5) vector over codims 0 to 2 against every
    # monomial: only the terms of complementary codim pair, and the
    # pairing check of its codim-1 part reads the same numbers
    rng = random.Random(11)
    vec = StrataVector(0, 5, {dg: F(rng.randint(-5, 5), rng.randint(1, 5))
                              for d in range(3)
                              for dg in cell_basis((0, 5, d))[0]})
    for d in range(3):
        for m in smooth_monomial_basis(0, 5, d):
            assert integrate_against_monomial(vec, m) == \
                _chain_pairing(vec, m), m
    codim1 = vec.codim_part(1)
    expected = [(m, _chain_pairing(codim1, m))
                for m in smooth_monomial_basis(0, 5, 1)]
    assert len(expected) == 6 and all(v for _, v in expected)
    assert verify_vector(codim1, 1) == expected


def test_pairing_refuses_a_monomial_of_another_type():
    psi1 = StrataVector.single(DecoratedGraph.smooth(1, 1, leg_psi={1: 1}))
    with pytest.raises(ValueError, match=r"cannot pair a \(1, 1\) vector "
                       r"with a \(0, 4\) monomial"):
        integrate_against_monomial(psi1, DecoratedGraph.smooth(0, 4))
    with pytest.raises(ValueError, match="smooth monomials only"):
        integrate_against_monomial(psi1, DecoratedGraph(
            StableGraph([0], [[1]], [(0, 0)])))


@pytest.mark.parametrize("g, psi, kappas", [
    (2, (2, 0), (1, 2)), (1, (1, 0, 0), (1, 1)), (2, (), (1, 2)),
    (0, (1, 0, 0, 0, 0, 0), (1, 1)), (1, (0, 0, 1, 0), (1, 2))])
def test_kappa_psi_integral_is_symmetric(g, psi, kappas):
    # every ordering of the psi exponents and of the kappas gives the value
    # of the unmemoized formula on that ordering
    value = kappa_psi_integral(g, list(psi), list(kappas))
    assert value
    for p in set(itertools.permutations(psi)):
        for k in set(itertools.permutations(kappas)):
            assert _kappa_psi_integral.__wrapped__(g, p, k) == value
            assert kappa_psi_integral(g, list(p), list(k)) == value
