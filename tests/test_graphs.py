import itertools
import random
from fractions import Fraction as F
from math import factorial

import pytest

from tautrel.graphs import (DecoratedGraph, StableGraph, StrataVector,
                            _rebuild, cell_basis, enumerate_decorated_basis,
                            enumerate_stable_graphs, forgetful_pushforward,
                            gluing_pushforward, multiply_kappa, multiply_psi)
from tautrel.intersect import integrate_strata


def brute_force_keys(g, n, max_edges):
    """Independent generate-and-filter enumeration over labeled data.

    Tries every genus composition x edge multiset x leg assignment and
    returns the set of canonical keys of the survivors.  Stability
    (2g_v - 2 + valence > 0 at every vertex) and connectivity are checked
    here, on the labeled data, before a graph is built; ``StableGraph`` only
    canonicalizes.  A connected graph with nv vertices and ne edges has
    first Betti number ne - nv + 1, so the genera sum to the rest of g.
    """
    seen = set()
    max_v = max(1, 2 * g - 2 + n)
    for nv in range(1, max_v + 1):
        for ne in range(nv - 1, max_edges + 1):
            total_genus = g - (ne - nv + 1)
            if total_genus < 0:
                continue
            pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
            for genera in itertools.product(range(total_genus + 1), repeat=nv):
                if sum(genera) != total_genus:
                    continue
                for edges in itertools.combinations_with_replacement(pairs, ne):
                    if not _brute_force_connected(nv, edges):
                        continue
                    edge_valence = [0] * nv
                    for i, j in edges:
                        edge_valence[i] += 1
                        edge_valence[j] += 1
                    for assignment in itertools.product(range(nv), repeat=n):
                        valence = list(edge_valence)
                        for v in assignment:
                            valence[v] += 1
                        if any(2 * gv - 2 + k <= 0
                               for gv, k in zip(genera, valence)):
                            continue
                        legs = [[] for _ in range(nv)]
                        for label, v in enumerate(assignment, start=1):
                            legs[v].append(label)
                        seen.add(StableGraph(genera, legs, edges).key())
    return seen


def _brute_force_connected(nv, edges):
    reached, frontier = {0}, [0]
    while frontier:
        v = frontier.pop()
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                if x == v and y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return len(reached) == nv


def _assert_matches_brute_force(g, n, max_edges):
    # the same graphs, each once, in (edge count, key) order
    got = [graph.key() for graph in enumerate_stable_graphs(g, n, max_edges)]
    want = brute_force_keys(g, n, max_edges)
    assert set(got) == want
    assert got == sorted(want, key=lambda k: (len(k[2]), k))


def test_enumeration_counts_match_brute_force():
    for g, n in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 0), (1, 3), (2, 1)]:
        _assert_matches_brute_force(g, n, 3 * g - 3 + n)


def test_enumeration_counts_match_brute_force_14():
    _assert_matches_brute_force(1, 4, 4)


def test_enumeration_counts_match_brute_force_224():
    _assert_matches_brute_force(2, 2, 4)


def test_known_counts():
    assert len(enumerate_stable_graphs(0, 3, 0)) == 1
    assert len(enumerate_stable_graphs(1, 1, 1)) == 2
    assert len(enumerate_stable_graphs(0, 4, 1)) == 4
    assert len(enumerate_stable_graphs(0, 5, 2)) == 26
    assert len(enumerate_stable_graphs(2, 0, 3)) == 7


def test_known_counts_beyond_brute_force():
    # genus 0: stable trees with n labeled leaves, Schroeder's fourth
    # problem (OEIS A000311): 236 for n = 6 and 2752 for n = 7
    assert len(enumerate_stable_graphs(0, 6, 3)) == 236
    assert len(enumerate_stable_graphs(0, 7, 4)) == 2752
    # the count the brute-force enumerator gave for (0,7) with <= 3 edges
    assert len(enumerate_stable_graphs(0, 7, 3)) == 1807
    # the 42 boundary strata of M_3-bar (Faber, "Chow rings of moduli
    # spaces of curves I", Ann. of Math. 132 (1990))
    assert len(enumerate_stable_graphs(3, 0, 6)) == 42


def test_enumeration_truncates_full_dimension():
    for g, n in [(0, 6), (1, 3), (1, 4), (2, 1), (3, 0)]:
        dim = 3 * g - 3 + n
        full = enumerate_stable_graphs(g, n, dim)
        for e in range(dim + 1):
            assert enumerate_stable_graphs(g, n, e) == tuple(
                graph for graph in full if len(graph.edges) <= e)


def test_enumeration_edge_cases():
    # no stable graph has more than 3g - 3 + n edges
    assert enumerate_stable_graphs(1, 2, 5) == enumerate_stable_graphs(1, 2, 2)
    assert enumerate_stable_graphs(0, 4, 9) == enumerate_stable_graphs(0, 4, 1)
    assert enumerate_stable_graphs(2, 0, 0) == (StableGraph([2], [[]], []),)
    for g, n in [(0, 0), (0, 1), (0, 2), (1, 0)]:
        with pytest.raises(ValueError):
            enumerate_stable_graphs(g, n, 2)


def test_enumeration_memoized_tuple():
    first = enumerate_stable_graphs(1, 2, 2)
    assert isinstance(first, tuple)
    assert enumerate_stable_graphs(1, 2, 2) is first


def test_automorphism_orders():
    loop = StableGraph([0], [[1]], [(0, 0)])
    assert loop.aut_order() == 2
    two_g1 = StableGraph([1, 1], [[], []], [(0, 1)])
    assert two_g1.aut_order() == 2
    theta = StableGraph([0, 0], [[], []], [(0, 1)] * 3)
    assert theta.aut_order() == 12
    two_loops = StableGraph([0], [[]], [(0, 0), (0, 0)])
    assert two_loops.aut_order() == 8
    marked = StableGraph([0, 1], [[1, 2], []], [(0, 1)])
    assert marked.aut_order() == 1


def _vertex_symmetries(graph):
    """Every vertex permutation that keeps the genera, the leg sets and the
    edge multiset, found by trying all of them."""
    nv = graph.num_vertices
    return [p for p in itertools.permutations(range(nv))
            if all(graph.genera[p[v]] == graph.genera[v]
                   and graph.legs[p[v]] == graph.legs[v] for v in range(nv))
            and sorted(tuple(sorted((p[a], p[b]))) for a, b in graph.edges)
            == list(graph.edges)]


def test_aut_order_matches_brute_force():
    # vertex symmetries times m! per m parallel edges and 2^m per m loops
    for g, n in [(0, 5), (1, 2), (1, 3), (2, 0), (2, 1)]:
        for graph in enumerate_stable_graphs(g, n, 3 * g - 3 + n):
            want = len(_vertex_symmetries(graph))
            for e in set(graph.edges):
                m = graph.edges.count(e)
                want *= factorial(m) * (2 ** m if e[0] == e[1] else 1)
            assert graph.aut_order() == want, graph


def _raw_copy(dg, rng, perms):
    """Raw data of ``dg`` moved by a vertex permutation drawn from ``perms``:
    edges in random order and orientation, each psi pair swapped with its
    edge, kappas in random order."""
    graph = dg.graph
    p = rng.choice(perms)
    nv = graph.num_vertices
    genera, legs, kappa = [None] * nv, [None] * nv, [None] * nv
    for v in range(nv):
        genera[p[v]] = graph.genera[v]
        legs[p[v]] = list(graph.legs[v])
        kappa[p[v]] = rng.sample(dg.kappa[v], len(dg.kappa[v]))
    moved = []
    for (a, b), (xa, xb) in zip(graph.edges, dg.edge_psi):
        if rng.random() < 0.5:
            a, b, xa, xb = b, a, xb, xa
        moved.append(((p[a], p[b]), (xa, xb)))
    rng.shuffle(moved)
    return (genera, legs, [e for e, _ in moved], dict(dg.leg_psi),
            [x for _, x in moved], kappa)


def test_canonical_key_independent_of_labeling():
    # a basis element rebuilt from relabeled raw data keeps its key; so does
    # the constructor fed the decoration moved by a graph automorphism
    rng = random.Random(1505)
    for cell in [(0, 5, 2), (1, 2, 2), (2, 0, 2)]:
        basis, _ = cell_basis(cell)
        for dg in rng.sample(basis, min(40, len(basis))):
            everything = list(itertools.permutations(range(
                dg.graph.num_vertices)))
            for _ in range(3):
                assert _rebuild(*_raw_copy(dg, rng, everything)).key() \
                    == dg.key()
            _, _, edges, leg_psi, edge_psi, kappa = _raw_copy(
                dg, rng, _vertex_symmetries(dg.graph))
            aligned = sorted(((min(e), max(e)), rng.random(),
                              x if e[0] <= e[1] else x[::-1])
                             for e, x in zip(edges, edge_psi))
            assert [e for e, _, _ in aligned] == list(dg.graph.edges)
            again = DecoratedGraph(dg.graph, leg_psi,
                                   [x for _, _, x in aligned], kappa)
            assert again.key() == dg.key()


def test_canonical_idempotence():
    dg = DecoratedGraph(StableGraph([0, 0], [[1], [2]], [(0, 1), (0, 1)]),
                        leg_psi={1: 1}, edge_psi=[(1, 0), (0, 0)])
    again = DecoratedGraph(dg.graph, dict(dg.leg_psi), dg.edge_psi, dg.kappa)
    assert dg == again


def test_multiply_psi_kappa():
    smooth = StrataVector.single(DecoratedGraph.smooth(1, 1))
    v = multiply_psi(smooth, 1)
    (dg, c), = v.terms.items()
    assert dg.leg_psi == ((1, 1),) and c == 1
    # dimension bound: psi^2 on (1,1) is zero
    assert multiply_psi(v, 1).is_zero()
    k = multiply_kappa(multiply_kappa(StrataVector.single(DecoratedGraph.smooth(2, 0)), 1), 1)
    (dgk, ck), = k.terms.items()
    assert dgk.kappa == ((1, 1),)


def test_gluing_pushforward_examples():
    # two (0,3) fundamental classes along the (0,4) two-vertex graph
    graph = StableGraph([0, 0], [[1, 2], [3, 4]], [(0, 1)])
    f03 = StrataVector.single(DecoratedGraph.smooth(0, 3))
    glued = gluing_pushforward(graph, [f03, f03])
    (dg, c), = glued.terms.items()
    assert c == 1 and dg.graph == graph and dg.codim() == 1
    # psi on the half-edge marking
    psi3 = StrataVector.single(DecoratedGraph.smooth(0, 3, leg_psi={3: 1}))
    glued = gluing_pushforward(graph, [psi3, f03])
    (dg, c), = glued.terms.items()
    assert dg.edge_psi == ((1, 0),) or dg.edge_psi == ((0, 1),)
    # self-gluing a (0, 3) class to genus 1: the loop graph on (1,1)
    loop = StableGraph([0], [[1]], [(0, 0)])
    glued = gluing_pushforward(loop, [f03])
    (dg, c), = glued.terms.items()
    assert dg.graph == loop
    # grafting a boundary class into a vertex flattens composites
    boundary04 = StrataVector.single(
        DecoratedGraph(StableGraph([0, 0], [[1, 2], [3, 4]], [(0, 1)])))
    outer = StableGraph([0, 1], [[1, 2, 3], []], [(0, 1)])
    glued = gluing_pushforward(outer, [boundary04, StrataVector.single(
        DecoratedGraph.smooth(1, 1))])
    (dg, c), = glued.terms.items()
    assert dg.graph.num_vertices == 3 and len(dg.graph.edges) == 2


def test_forgetful_one_point_rules():
    # pi_*(psi_{n+1}^{a+1}) = kappa_a on a smooth vertex
    for g, n, a in [(1, 1, 1), (0, 3, 1), (2, 0, 2)]:
        v = StrataVector.single(
            DecoratedGraph.smooth(g, n + 1, leg_psi={n + 1: a + 1}))
        out = forgetful_pushforward(v)
        (dg, c), = out.terms.items()
        assert c == 1 and dg.kappa[0] == (a,) and not dg.leg_psi
    # pi_*(psi_{n+1}) = (2g - 2 + n) * fundamental
    v = StrataVector.single(DecoratedGraph.smooth(1, 2, leg_psi={2: 1}))
    out = forgetful_pushforward(v)
    (dg, c), = out.terms.items()
    assert c == 2 * 1 - 2 + 1 and dg.codim() == 0
    # two-point formula: pi_* twice of psi^2 psi^2 -> kappa_1^2 + kappa_2
    v = StrataVector.single(
        DecoratedGraph.smooth(2, 2, leg_psi={1: 2, 2: 2}))
    out = forgetful_pushforward(forgetful_pushforward(v))
    want = {(1, 1): F(1), (2,): F(1)}
    got = {dg.kappa[0]: c for dg, c in out.terms.items()}
    assert got == want


def test_forgetful_pushforward_to_unstable_type_raises():
    # (1,1) -> (1,0) and (0,3) -> (0,2) have no stable target: an error,
    # not a silent zero
    for g, n in [(1, 1), (0, 3)]:
        v = StrataVector.single(DecoratedGraph.smooth(g, n))
        with pytest.raises(ValueError):
            forgetful_pushforward(v)
    # a vector with no legs has none to forget
    v = StrataVector.single(DecoratedGraph.smooth(2, 0, kappa=(1,)))
    with pytest.raises(ValueError,
                       match=r"^\(g, n\) = \(2, 0\) has no leg to forget$"):
        forgetful_pushforward(v)


def test_adding_vectors_of_different_types_raises():
    # a ValueError, which python -O keeps, not an assert
    a = StrataVector.single(DecoratedGraph.smooth(1, 1))
    b = StrataVector.single(DecoratedGraph.smooth(0, 4))
    with pytest.raises(ValueError, match=r"\(0, 4\) vector to a \(1, 1\)"):
        a + b


def test_forgetful_string_case():
    # pi_*(psi_1 psi_2) on (0, 4) -> psi_1-lowered strings... against the
    # string equation: pi_*(psi_1^a with trivial last leg) = sum lowerings
    v = StrataVector.single(DecoratedGraph.smooth(0, 4, leg_psi={1: 1, 2: 1}))
    out = forgetful_pushforward(v)  # forget leg 4 (no psi): string terms
    got = {dg.leg_psi: c for dg, c in out.terms.items()}
    assert got == {((1, 1),): F(1), ((2, 1),): F(1)}


def test_forgetful_order_independence():
    v = StrataVector.single(
        DecoratedGraph.smooth(1, 3, leg_psi={1: 1, 2: 2, 3: 1}, kappa=(1,)))
    # v with legs 2 and 3 swapped
    w = StrataVector.single(
        DecoratedGraph.smooth(1, 3, leg_psi={1: 1, 2: 1, 3: 2}, kappa=(1,)))
    a = forgetful_pushforward(forgetful_pushforward(v))
    b = forgetful_pushforward(forgetful_pushforward(w))
    # forgetting leg 3 then 2 of v equals forgetting leg 2 then 3 of v
    assert {d.key() for d in a.terms} == {d.key() for d in b.terms}
    for dg, c in a.terms.items():
        assert b.terms[dg] == c


def test_forgetful_contraction():
    # forgetting the only leg of a (0,3) vertex in a 1-edge graph of (1,2)
    graph = StableGraph([1, 0], [[], [1, 2]], [(0, 1)])
    v = StrataVector.single(DecoratedGraph(graph))
    out = forgetful_pushforward(v)  # leg 2 sits on the (0,3) vertex
    # contraction joins the half-edges: leg 1 moves onto the genus-1 vertex
    (dg, c), = out.terms.items()
    assert dg.graph.num_vertices == 1 and dg.graph.genera == (1,)
    assert not dg.graph.edges and c == 1


def test_forgetful_pushforward_preserves_integrals_on_a_cell_basis():
    # int over M_{g,n-1} of pi_* alpha = int over M_{g,n} of alpha, for
    # every top-codim basis class of (2, 2); the string case lowers an edge
    # psi on graphs whose two leg-free genus-1 vertices an automorphism
    # swaps, with a kappa on one of them
    basis, _ = cell_basis((2, 2, 5))
    assert len(basis) == 3638
    for dg in basis:
        v = StrataVector.single(dg)
        assert integrate_strata(forgetful_pushforward(v)) == \
            integrate_strata(v), dg


def test_forgetful_string_case_keeps_kappa_with_its_vertex():
    # genus-2 vertex with leg 1 joined to two genus-1 vertices, psi on both
    # genus-2 half-edges, kappa_1 on one genus-1 vertex: the string case
    # lowers either psi, so the kappa ends up once beside the surviving psi
    # and once away from it
    graph = StableGraph([1, 1, 2], [[], [], [1]], [(0, 2), (1, 2)])
    v = StrataVector.single(DecoratedGraph(
        graph, edge_psi=[(0, 1), (0, 1)], kappa=[(), (1,), ()]))
    bare = StableGraph([1, 1, 2], [[], [], []], [(0, 2), (1, 2)])
    want = {DecoratedGraph(bare, edge_psi=[(0, 1), (0, 0)], kappa=kappa): F(1)
            for kappa in ([(1,), (), ()], [(), (1,), ()])}
    assert len(want) == 2
    assert forgetful_pushforward(v).terms == want


def test_dilaton_strata_identity():
    # sum_k (1+b)^(2-2g-n-k)/k! pi_*(prod b psi) = 1, checked to b^4
    for g, n in [(1, 1), (0, 4)]:
        # collect coefficients of b^j for j = 0..4 of the left-hand side;
        # (1+b)^e is expanded with the generalized binomial series
        acc = {j: F(0) for j in range(5)}
        for k in range(0, 5):
            if k == 0:
                pushed = {(): F(1)}  # fundamental class coefficient
            else:
                v = StrataVector.single(DecoratedGraph.smooth(
                    g, n + k, leg_psi={n + j: 1 for j in range(1, k + 1)}))
                for _ in range(k):
                    v = forgetful_pushforward(v)
                if v.is_zero():
                    pushed = {}
                else:
                    (dg, c), = v.terms.items()
                    assert dg.codim() == 0
                    pushed = {(): c}
            coeff = pushed.get((), F(0)) / _fact(k)
            e = 2 - 2 * g - n - k
            for j in range(k, 5):
                acc[j] += coeff * _binom(e, j - k)
        assert acc[0] == 1
        for j in range(1, 5):
            assert acc[j] == 0


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def _binom(e, j):
    out = F(1)
    for i in range(j):
        out *= F(e - i, i + 1)
    return out


def test_decorated_basis_enumeration():
    basis = enumerate_decorated_basis(1, 1, 1)
    kinds = sorted(str(dg) for dg in basis)
    assert len(basis) == 3  # psi_1, kappa_1, delta_0
    assert len(enumerate_decorated_basis(0, 4, 1)) == 8  # 4 psi, kappa_1, 3 boundary
