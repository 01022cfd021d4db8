import functools
import json
import random
from fractions import Fraction as F

import pytest

from tautrel import relations
from tautrel.charts import a2_expansion, a2x_a1_expansion, a3_expansion
from tautrel.frobenius import idempotent_frame, integer_row, rref
from tautrel.graphs import (DecoratedGraph, StrataVector, _canonical_labeling,
                            cell_basis, forgetful_pushforward,
                            gluing_pushforward, multiply_kappa, multiply_psi)
from tautrel.intersect import (integrate_against_monomial, pairing_matrix,
                              smooth_monomial_basis)
from tautrel.multipoly import MultiPoly as MP
from tautrel.puiseux import INF, SeriesMatrix, PuiseuxSeries as PS
from tautrel.reconstruct import CohFTSpec
from tautrel.relations import (RelationSet, close_relations,
                               closure_operations, compare_spans,
                               extract_relations, operator_map, polar_vectors,
                               relabel_legs, to_row, verify_relations,
                               verify_vector)
from tautrel.rmatrix import RMatrix, solve_flatness
from tautrel.serialize import relations_from_json, relations_to_json


def a2_spec(K=3, trunc=10):
    frame = idempotent_frame(a2_expansion(trunc=trunc))
    return CohFTSpec(frame, solve_flatness(frame, K=K))


def test_extract_11_relation_span():
    spec = a2_spec()
    rs = extract_relations(spec, [(1, 1, 1)])
    assert rs.dim((1, 1, 1)) == 1
    # the relation is proportional to 14 psi + 10 kappa - delta_raw
    (vec,) = rs.vectors((1, 1, 1))
    coeffs = {}
    for dg, c in vec.terms.items():
        if dg.graph.edges:
            coeffs["delta"] = c
        elif dg.kappa[0]:
            coeffs["kappa"] = c
        else:
            coeffs["psi"] = c
    ratio = coeffs["psi"] / coeffs["delta"]
    assert ratio == F(14, -1) or ratio == F(-14, 1)
    assert coeffs["kappa"] / coeffs["delta"] == -10
    assert not verify_vector(vec, 1)


def test_extract_04_relations_pair_to_zero():
    spec = a2_spec()
    rs = extract_relations(spec, [(0, 4, 1)])
    assert rs.dim((0, 4, 1)) == 2
    assert verify_relations(rs) == {}


def test_corrupted_vector_flagged():
    spec = a2_spec()
    rs = extract_relations(spec, [(1, 1, 1)])
    (vec,) = rs.vectors((1, 1, 1))
    bad = vec + StrataVector.single(DecoratedGraph.smooth(1, 1, leg_psi={1: 1}),
                                    F(1, 7))
    report = verify_vector(bad, 1)
    assert report  # nonzero pairing found
    # verify_relations reports the same pairings, row by row
    bad_set = RelationSet([(1, 1, 1)])
    assert bad_set.add((1, 1, 1), bad)
    (row,) = bad_set.vectors((1, 1, 1))
    assert verify_relations(bad_set) == {
        (1, 1, 1): [(0, m, v) for m, v in verify_vector(row, 1)]}
    # the fundamental-class 'relation' is flagged too
    fake = StrataVector.single(DecoratedGraph.smooth(1, 1, kappa=(1,)))
    assert verify_vector(fake, 1)
    # the pairing matrix gives what multiplying by each monomial gives
    rng = random.Random(11)
    vec = StrataVector(0, 5, {dg: F(rng.randint(-5, 5), rng.randint(1, 5))
                              for dg in cell_basis((0, 5, 1))[0]})
    expected = [(m, integrate_against_monomial(vec, m))
                for m in smooth_monomial_basis(0, 5, 1)]
    assert len(expected) == 6 and all(v for _, v in expected)
    assert verify_vector(vec, 1) == expected


def test_basis_rows_and_duplicate_cells():
    # a cell listed twice is one cell; a graph outside the cell's basis is
    # refused by every reader of basis coordinates
    rs = RelationSet([(1, 1, 1), (0, 4, 1), (1, 1, 1)])
    assert rs.cells == [(0, 4, 1), (1, 1, 1)]
    psi = DecoratedGraph.smooth(1, 1, leg_psi={1: 1})
    _, index = cell_basis((1, 1, 1))
    assert to_row((1, 1, 1), StrataVector.single(psi, F(1, 2))) \
        == {index[psi.key()]: F(1, 2)}
    psi2 = StrataVector.single(DecoratedGraph.smooth(1, 1, leg_psi={1: 2}))
    for check in (lambda: to_row((1, 1, 1), psi2),
                  lambda: rs.add((1, 1, 1), psi2),
                  lambda: verify_vector(psi2, 1)):
        with pytest.raises(ValueError, match="outside the cell's basis"):
            check()


def test_closure_idempotent_and_empty():
    spec = a2_spec()
    cells = [(1, 1, 1), (0, 4, 1), (1, 2, 1), (1, 2, 2)]
    rs = extract_relations(spec, cells)
    closed = close_relations(rs)
    again = close_relations(closed)
    for cell in cells:
        assert closed.dim(cell) == again.dim(cell)
    empty = RelationSet(cells)
    assert all(close_relations(empty).dim(c) == 0 for c in cells)


def test_closure_produces_new_vectors():
    # closing the (0,4) relations into (1,2) and (1,1) adds vectors
    spec = a2_spec()
    rs = extract_relations(spec, [(0, 4, 1)])
    rs_with_targets = RelationSet([(0, 4, 1), (1, 2, 2), (0, 5, 2)])
    for vec in rs.vectors((0, 4, 1)):
        rs_with_targets.add((0, 4, 1), vec)
    closed = close_relations(rs_with_targets)
    assert closed.dim((1, 2, 2)) > 0
    assert closed.dim((0, 5, 2)) > 0
    assert verify_relations(closed) == {}


def test_compare_self_and_truncated():
    spec = a2_spec()
    cells = [(1, 1, 1), (0, 4, 1)]
    rs = close_relations(extract_relations(spec, cells))
    verdicts = compare_spans(rs, rs)
    assert all(v[0] == "equal" for v in verdicts.values())
    empty = RelationSet(cells)
    verdicts = compare_spans(rs, empty)
    assert all(v[0] == "right in left" for cell, v in verdicts.items()
               if rs.dim(cell) > 0)


def test_probe_independence():
    # different probe fields give the same closed span
    exp = a2_expansion(trunc=10)
    fr1 = idempotent_frame(exp, probe=[0, 1])
    fr2 = idempotent_frame(a2_expansion(trunc=10), probe=[1, 2])
    cells = [(1, 1, 1), (0, 4, 1)]
    spans = []
    for fr in (fr1, fr2):
        spec = CohFTSpec(fr, solve_flatness(fr, K=3))
        spans.append(close_relations(extract_relations(spec, cells)))
    verdicts = compare_spans(spans[0], spans[1])
    assert all(v[0] == "equal" for v in verdicts.values())


def random_symplectic(frame, rng, K=3):
    """exp(a1 z + a2 z^2 + a3 z^3) with a_odd symmetric, a_even antisymmetric."""
    n = frame.dim
    param = frame.param

    def rand_sym(sym):
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = F(rng.randint(-2, 2), rng.randint(1, 2))
                if sym:
                    m[i][j] = m[j][i] = x
                else:
                    if i == j:
                        continue
                    m[i][j], m[j][i] = x, -x
        return SeriesMatrix([[PS.const(c, param) for c in row] for row in m])

    a1, a2, a3 = rand_sym(True), rand_sym(False), rand_sym(True)
    ident = SeriesMatrix.identity(n, param)
    s2 = a2 + (a1 * a1).scale(F(1, 2))
    s3 = a3 + (a1 * a2 + a2 * a1).scale(F(1, 2)) + (a1 * a1 * a1).scale(F(1, 6))
    return [ident, a1, s2, s3][:K + 1]


def test_holomorphic_action_preserves_closed_span():
    rng = random.Random(20240917)
    frame = idempotent_frame(a2_expansion(trunc=10))
    R = solve_flatness(frame, K=3)
    spec = CohFTSpec(frame, R)
    cells = [(1, 1, 1), (0, 4, 1)]
    base = close_relations(extract_relations(spec, cells))
    for trial in range(5):
        S = random_symplectic(frame, rng, K=3)
        orders = []
        for k in range(R.K + 1):
            acc = SeriesMatrix.zero(frame.dim, frame.dim, frame.param)
            for p in range(0, k + 1):
                if p < len(S):
                    acc = acc + S[p] * R[k - p]
            orders.append(acc)
        SR = RMatrix(frame, orders, {})
        SR.check_symplectic()
        acted = CohFTSpec(frame, SR)
        span = close_relations(extract_relations(acted, cells))
        verdicts = compare_spans(base, span)
        assert all(v[0] == "equal" for v in verdicts.values()), (trial, verdicts)


def test_cancelled_products_keep_their_truncation():
    # The first two products cancel below O(t^0); the third is t^-1 + O(t^5).
    # Summed at once as the graph sum sums a coefficient, the t^-1 term is
    # known only below t^0, so its polar part cannot be certified.
    psi = DecoratedGraph.smooth(1, 1, {1: 1})
    x = PS("t", {-2: 1}, 1, trunc=0)
    one = PS.const(1, "t")
    pairs = [(x, one), (-x, one), (PS("t", {-1: 1}, 1, trunc=5), one)]
    coeff = PS.sum_of_products(pairs, "t")
    assert str(coeff) == "t^-1 + O(t^0)"
    with pytest.raises(ValueError, match="cannot certify polar coefficients"):
        list(polar_vectors((1, 1, 1), {psi: coeff}.items()))
    # summed pair by pair into a StrataVector, the cancelled partial sum is
    # dropped with its truncation and t^-1 + O(t^5) would certify
    pairwise = StrataVector(1, 1, [(psi, a * b) for a, b in pairs])
    assert str(pairwise.terms[psi]) == "t^-1 + O(t^5)"
    assert len(list(polar_vectors((1, 1, 1), pairwise.terms.items()))) == 1


def test_extraction_empty_on_zero_dimensional_moduli():
    spec = a2_spec()
    rs = extract_relations(spec, [(0, 3, 0)])
    assert rs.dim((0, 3, 0)) == 0


def test_extraction_repeatable_on_warm_caches():
    # the second run reads the contraction plans and vertex sums cached on
    # the spec by the first
    spec = a2_spec()
    cells = [(1, 1, 1), (0, 4, 1), (0, 5, 2)]
    cold = extract_relations(spec, cells)
    assert set(spec._plan_cache) == {(1, 1, 1), (0, 4, 1), (0, 5, 2)}
    warm = extract_relations(spec, cells)
    for cell in cells:
        assert cold.pivots[cell] == warm.pivots[cell]


def test_compare_spans_symmetric():
    spec = a2_spec()
    cells = [(1, 1, 1), (0, 4, 1)]
    rs1 = close_relations(extract_relations(spec, cells))
    rs2 = RelationSet(cells)
    rs2.add((0, 4, 1), rs1.vectors((0, 4, 1))[0])
    v12 = compare_spans(rs1, rs2)
    v21 = compare_spans(rs2, rs1)
    assert v12[(0, 4, 1)][0] == "right in left"
    assert v21[(0, 4, 1)][0] == "left in right"


def _span(cell, *rows):
    rs = RelationSet([cell])
    for row in rows:
        rs.add(cell, dict(row))
    return rs


def test_compare_verdicts_and_witnesses():
    # hand-built spans on four columns of one cell give every verdict; each
    # witness is the first RREF vector, in pivot order, outside the other span
    cell = (0, 5, 1)
    basis, _ = cell_basis(cell)
    e0, e12, e3 = {0: 1}, {1: -2, 2: -3}, {3: 5}
    e12_rref = {1: F(1), 2: F(3, 2)}
    cases = [
        (_span(cell, e0, e12), _span(cell, {0: 1, 1: -2, 2: -3}, {0: 2}),
         "equal", None),
        (_span(cell, e0), _span(cell, e3, e12, e0), "left in right", e12_rref),
        (_span(cell, e3, e0, e12), _span(cell, e0), "right in left", e12_rref),
        (_span(cell, e0, e12), _span(cell, e0, e3), "incomparable", e12_rref),
        (_span(cell, e3, e0), _span(cell, e12), "incomparable", {0: F(1)}),
    ]
    for left, right, verdict, witness in cases:
        assert compare_spans(left, right).keys() == {cell}
        got, vec = compare_spans(left, right)[cell]
        assert got == verdict
        if witness is None:
            assert vec is None
            continue
        assert vec.terms == {basis[i]: c for i, c in witness.items()}
        outer, inner = (right, left) if verdict == "left in right" \
            else (left, right)
        first = next(v for v in outer.vectors(cell)
                     if not inner.contains(cell, v))
        assert vec.terms == first.terms


# The eight default cells, and the sources (1,3,1..3) and (2,1,2..3) whose
# closure reaches generators - dim R^d on all eight.
CELLS8 = [(0, 4, 1), (0, 5, 1), (0, 5, 2), (1, 1, 1),
          (1, 2, 1), (1, 2, 2), (2, 0, 1), (2, 0, 2)]
SOURCES = [(1, 3, 1), (1, 3, 2), (1, 3, 3), (2, 1, 2), (2, 1, 3)]


@functools.lru_cache(maxsize=None)
def driver_a2():
    """A2 (trunc 12, K 4) on the eight cells and the sources: the extracted
    relations and their closure, shared by the tests that use them."""
    rs = extract_relations(a2_spec(K=4, trunc=12), CELLS8 + SOURCES)
    return rs, close_relations(rs)


# the charts of the CLI runs and the paper's A3 chart, each with its cells
CHARTS = {
    "a2": (lambda: a2_expansion(trunc=12), None, 4, CELLS8),
    "a2xa1-c1": (lambda: a2x_a1_expansion(1, trunc=12), None, 4, CELLS8),
    "a2xa1-c-2/3": (lambda: a2x_a1_expansion(F(-2, 3), trunc=12), None, 4,
                    CELLS8),
    "a3": (lambda: a3_expansion(trunc=10), [0, 1, 0], 3,
           [(1, 1, 1), (0, 4, 1)]),
}


@functools.lru_cache(maxsize=None)
def chart_spec(name):
    """The spec of ``CHARTS[name]`` and its cells, shared by the tests."""
    expansion, probe, K, cells = CHARTS[name]
    frame = idempotent_frame(expansion(), probe=probe)
    return CohFTSpec(frame, solve_flatness(frame, K=K)), cells


def _rational_polar_vectors(vector):
    """The polar rows in their earlier form, kept as an oracle: one rational
    StrataVector per (exponent, background monomial), in increasing
    exponent, read through ``support`` and ``coefficient``."""
    slots = {}
    for dg, series in vector.terms.items():
        if series.trunc <= 0:
            raise ValueError(
                "truncation %s cannot certify polar coefficients" % series.trunc)
        for e in series.support():
            if e >= 0:
                break
            for mono, coeff in series.coefficient(e).terms.items():
                slots.setdefault((e, mono), {})[dg] = coeff
    for _, terms in sorted(slots.items(),
                           key=lambda kv: (kv[0][0], str(kv[0][1]))):
        vec = StrataVector(vector.g, vector.n)
        vec.terms = dict(terms)
        yield vec


def _assert_polar_rows_match_oracle(cell, terms, spans):
    """Each integer row of ``polar_vectors`` is a positive multiple of the
    oracle's row of its slot; both are reduced into ``spans[cell]``, a
    pair of pivot maps, which must stay equal."""
    rows = list(polar_vectors(cell, terms))
    vector = StrataVector(cell[0], cell[1])
    vector.terms = dict(terms)
    oracle = [integer_row(to_row(cell, vec))
              for vec in _rational_polar_vectors(vector)]
    assert len(rows) == len(oracle)
    for row, ref in zip(rows, oracle):
        assert row.keys() == ref.keys()
        ratio = F(row[min(ref)], ref[min(ref)])
        assert ratio > 0
        assert all(row[c] == ratio * ref[c] for c in ref), (row, ref)
    ours, theirs = spans.setdefault(cell, ({}, {}))
    rref([dict(row) for row in rows], ours)
    rref(oracle, theirs)
    assert ours == theirs


def _random_polar_class(rng, cell):
    """(decorated graph, series) pairs on part of the basis of ``cell``:
    ram 1, 2 or 3, rational coefficients with denominators up to 35 over
    monomials with @i and @r symbols, finite or infinite truncations."""
    monos = [MP.const(1), MP.var("@i"), MP.var("@r2", 5), MP.var("x"),
             MP.monomial(1, [("@i", 1), ("@r3", 7)]),
             MP.monomial(1, [("x", 1), ("@r2", 6)])]
    basis = cell_basis(cell)[0]
    terms = []
    for dg in rng.sample(basis, min(len(basis), 8)):
        ram = rng.choice((1, 2, 3))
        coeffs = {}
        for k in rng.sample(range(-3 * ram, 2 * ram), 4):
            coeffs[k] = sum((F(rng.choice((-7, -3, -1, 1, 2, 5, 9)),
                               rng.randint(1, 35)) * mono
                             for mono in rng.sample(monos, rng.randint(1, 3))),
                            MP.const(0))
        trunc = INF if rng.random() < 0.2 else F(rng.randint(1, 3 * ram), ram)
        terms.append((dg, PS("t", coeffs, ram, trunc)))
    return terms


def test_polar_rows_match_rational_oracle_on_random_classes():
    rng = random.Random(3535)
    spans = {}
    for cell in [(1, 1, 1), (0, 5, 2), (1, 2, 2)]:
        for _ in range(15):
            _assert_polar_rows_match_oracle(
                cell, _random_polar_class(rng, cell), spans)
    # every series of a class is checked, and a polar graph must lie in the
    # cell's basis
    psi = DecoratedGraph.smooth(1, 1, {1: 1})
    with pytest.raises(ValueError, match="cannot certify polar coefficients"):
        list(polar_vectors((1, 1, 1), [(psi, PS("t", {1: 1}, 1, trunc=0))]))
    psi2 = DecoratedGraph.smooth(1, 1, {1: 2})
    with pytest.raises(ValueError, match="outside the cell's basis"):
        list(polar_vectors((1, 1, 1), [(psi2, PS("t", {-1: 1}, 1, trunc=1))]))


def test_polar_rows_match_rational_oracle_on_chart_classes(monkeypatch):
    # every class that extraction meets on a2, a2xa1 (c = 1) and a3
    seen = []
    rows_of = relations.polar_vectors

    def recording(cell, terms):
        terms = list(terms)
        seen.append((cell, terms))
        return rows_of(cell, terms)

    monkeypatch.setattr(relations, "polar_vectors", recording)
    for name in ("a2", "a2xa1-c1", "a3"):
        spec, cells = chart_spec(name)
        seen.clear()
        rs = extract_relations(spec, cells)
        assert seen
        spans = {}
        for cell, terms in seen:
            _assert_polar_rows_match_oracle(cell, terms, spans)
        for cell in cells:
            assert rs.pivots[cell] == spans.get(cell, ({}, {}))[1], (name, cell)


def test_a3_chart_relations_match_a2():
    """Relations from the 3-dimensional quartic chart (series in phi with
    Laurent coefficients in zeta3) span the same spaces as the cubic chart:
    a cross-chart instance of the span-equality theorem on honestly
    different geometry (cuspidal discriminant, double-cover parameter).
    Closed over the eight cells alone, a3 already reaches the ranks
    generators - dim R^d that A2 needs the source cells for."""
    from tautrel.charts import a3_expansion
    frame = idempotent_frame(a3_expansion(trunc=12), probe=[0, 1, 0])
    spec3 = CohFTSpec(frame, solve_flatness(frame, K=4))
    a3 = close_relations(extract_relations(spec3, CELLS8))
    assert [a3.dim(cell) for cell in CELLS8] == [7, 11, 126, 2, 3, 18, 1, 6]
    assert verify_relations(a3) == {}

    _, a2big = driver_a2()
    a2 = RelationSet(CELLS8)
    for cell in CELLS8:
        for v in a2big.vectors(cell):
            a2.add(cell, v)
    verdicts = compare_spans(a2, a3)
    assert {cell: v[0] for cell, v in verdicts.items()} == \
        {cell: "equal" for cell in CELLS8}


def test_tilted_chart_relations_match_a2():
    # a second two-dimensional chart with eta0 != 0: same closed spans
    from tautrel.charts import a2_tilted_expansion
    cells = [(1, 1, 1), (0, 4, 1)]
    frame = idempotent_frame(a2_tilted_expansion(trunc=12))
    spec = CohFTSpec(frame, solve_flatness(frame, K=3))
    rs = extract_relations(spec, cells)
    assert verify_relations(rs) == {}
    tilted = close_relations(rs)
    spec2 = a2_spec(K=4, trunc=12)
    big = [(1, 1, 1), (0, 4, 1), (1, 2, 1), (1, 2, 2)]
    a2big = close_relations(extract_relations(spec2, big))
    a2 = RelationSet(cells)
    for cell in cells:
        for v in a2big.vectors(cell):
            a2.add(cell, v)
    verdicts = compare_spans(a2, tilted)
    assert all(v[0] == "equal" for v in verdicts.values()), verdicts


def test_extraction_on_remaining_default_cells():
    # the (2,1) and (1,3) cells of the desk-scale grid: nonzero spans, all
    # pairings vanish
    spec = a2_spec(K=4, trunc=12)
    cells = [(2, 1, 1), (2, 1, 2), (1, 3, 1), (1, 3, 2)]
    rs = extract_relations(spec, cells)
    assert {c: rs.dim(c) for c in cells} == \
        {(2, 1, 1): 1, (2, 1, 2): 1, (1, 3, 1): 1, (1, 3, 2): 2}
    assert verify_relations(rs) == {}


def dense_rref(vectors, ncols):
    """Reference Gauss-Jordan on dense rows: first nonzero column as pivot,
    rows kept in insertion order and back-substituted."""
    rows, pivots = [], []
    for vec in vectors:
        row = dense_reduce(rows, pivots, vec)
        piv = next((i for i, x in enumerate(row) if x), None)
        if piv is None:
            continue
        row = [x / row[piv] for x in row]
        rows = [[x - r[piv] * y for x, y in zip(r, row)] if r[piv] else r
                for r in rows]
        rows.append(row)
        pivots.append(piv)
    return rows, pivots


def dense_reduce(rows, pivots, vec):
    row = list(vec)
    for r, p in zip(rows, pivots):
        f = row[p]
        if f:
            row = [x - f * y for x, y in zip(row, r)]
    return row


def direct_rref(vectors):
    """``frobenius.rref`` of dense rational rows against ``dense_rref``: the
    same pivots and the same rational rows.  Returns the pivot map."""
    ncols = len(vectors[0])
    pivots = rref(integer_row(dict(enumerate(vec))) for vec in vectors)
    rows, expected = dense_rref(vectors, ncols)
    assert sorted(pivots) == sorted(expected)
    assert [[F(row.get(i, 0), row[p]) for i in range(ncols)]
            for p, row in sorted(pivots.items())] == \
        [row for _, row in sorted(zip(expected, rows))]
    return pivots


def test_sparse_rref_matches_dense_reference():
    cell = (0, 5, 2)
    basis, index = cell_basis(cell)
    ncols = len(basis)
    assert ncols == 127

    def strata(dense):
        return StrataVector(0, 5, {basis[i]: x for i, x in enumerate(dense)})

    def dense_rows(relations):
        # the rational rows, read through the artifact path
        rows = []
        for vec in relations.vectors(cell):
            row = [F(0)] * ncols
            for dg, c in vec.terms.items():
                row[index[dg.key()]] = c
            rows.append(row)
        return rows

    # small denominators (three seeds), then large coprime primes
    input_sets = [(1505 + seed, range(1, 5)) for seed in range(3)]
    input_sets.append((1509, (89, 97, 101)))
    for seed, denominators in input_sets:
        rng = random.Random(seed)

        def sparse_dense():
            row = [F(0)] * ncols
            for i in rng.sample(range(ncols), rng.randint(1, 6)):
                row[i] = F(rng.randint(-5, 5), rng.choice(denominators))
            return row

        def combination(vectors):
            row = [F(0)] * ncols
            for vec in rng.sample(vectors, min(3, len(vectors))):
                c = F(rng.randint(-3, 3), rng.choice(denominators))
                row = [x + c * y for x, y in zip(row, vec)]
            return row

        inputs = []
        for _ in range(60):
            fresh = rng.random() < 0.7 or not inputs
            inputs.append(sparse_dense() if fresh else combination(inputs))
        rs = RelationSet([cell])
        for vec in inputs:
            rs.add(cell, strata(vec))
        rows, pivots = dense_rref(inputs, ncols)
        # the same basis, read in ascending pivot order
        rows = [row for _, row in sorted(zip(pivots, rows))]
        pivots = sorted(pivots)
        assert rs.dim(cell) == len(rows)
        assert sorted(rs.pivots[cell]) == pivots
        assert all(min(r) == p for p, r in rs.pivots[cell].items())

        assert dense_rows(rs) == rows
        for vec, row in zip(rs.vectors(cell), rows):
            assert [index[dg.key()] for dg in vec.terms] == \
                sorted(index[dg.key()] for dg in vec.terms)
            assert {index[dg.key()]: c for dg, c in vec.terms.items()} == \
                {i: x for i, x in enumerate(row) if x}

        inside = [combination(inputs) for _ in range(10)]
        outside = [sparse_dense() for _ in range(10)]
        for vec in inside + outside:
            expected = not any(dense_reduce(rows, pivots, vec))
            assert rs.contains(cell, strata(vec)) == expected
        assert all(rs.contains(cell, strata(vec)) for vec in inside)

        back = relations_from_json(relations_to_json(rs))
        assert back.pivots[cell] == rs.pivots[cell]
        assert direct_rref(inputs) == rs.pivots[cell]

    # an augmented system [A | b] of rank 3 in four unknowns: consistent,
    # the augmented column 4 holds no pivot and the pivot map's solution
    # (free unknowns 0) solves it; with one entry of b moved, it does
    rng = random.Random(1510)
    a = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
         for _ in range(3)]
    a += [[x + 2 * y for x, y in zip(a[0], a[1])],
          [x - y / 3 for x, y in zip(a[1], a[2])]]
    x = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
    b = [sum(r * y for r, y in zip(row, x)) for row in a]
    pivots = direct_rref([row + [c] for row, c in zip(a, b)])
    assert 4 not in pivots and len(pivots) == 3
    y = [F(0)] * 4
    for p, row in pivots.items():
        y[p] = F(row.get(4, 0), row[p])
    assert [sum(r * v for r, v in zip(row, y)) for row in a] == b
    b[4] += 1
    assert 4 in direct_rref([row + [c] for row, c in zip(a, b)])


def reference_operation(op, vec):
    """The graph operation a closure operation stands for."""
    kind = op[0]
    if kind == "swap":
        perm = {k: k for k in range(1, vec.n + 1)}
        perm[op[1]], perm[op[1] + 1] = op[1] + 1, op[1]
        return relabel_legs(vec, perm)
    if kind == "psi":
        return multiply_psi(vec, op[1])
    if kind == "kappa":
        return multiply_kappa(vec, op[1])
    if kind == "forget":
        return forgetful_pushforward(vec)
    _, graph, v = op
    local = []
    for w in range(graph.num_vertices):
        gw, nw = graph.genera[w], len(graph.vertex_markings(w))
        if w == v:
            assert (vec.g, vec.n) == (gw, nw)
            local.append(vec)
        else:
            local.append(StrataVector.single(DecoratedGraph.smooth(gw, nw)))
    return gluing_pushforward(graph, local)


def test_closure_maps_match_graph_operations():
    sources = [(0, 4, 1), (0, 5, 1), (1, 1, 1), (1, 2, 1)]
    grafted = [(0, 5, 2), (1, 2, 2), (2, 0, 2)]
    forgotten = [(0, 3, 0), (0, 4, 0), (1, 1, 0)]
    cells = sources + grafted + forgotten
    rng = random.Random(1505)
    kinds = set()
    glued = set()
    for source in sources:
        basis, _ = cell_basis(source)
        for op, target in closure_operations(source, cells):
            kinds.add(op[0])
            if op[0] == "glue":
                glued.add((source, target))
            opmap = operator_map(source, op, target)
            assert len(opmap) == len(basis)
            for _ in range(2):
                row = {i: F(rng.randint(-9, 9), rng.randint(1, 7))
                       for i in rng.sample(range(len(basis)),
                                           min(4, len(basis)))}
                image = {}
                for i, x in row.items():
                    for t, y in opmap[i].items():
                        image[t] = image.get(t, 0) + x * y
                image = {t: x for t, x in image.items() if x}
                vec = StrataVector(source[0], source[1],
                                   {basis[i]: x for i, x in row.items()})
                assert image == to_row(
                    target, reference_operation(op, vec)), (source, op)
    assert kinds == {"swap", "psi", "kappa", "forget", "glue"}
    assert glued == {((0, 4, 1), (0, 5, 2)), ((0, 4, 1), (1, 2, 2)),
                     ((1, 1, 1), (1, 2, 2)), ((1, 1, 1), (2, 0, 2)),
                     ((1, 2, 1), (2, 0, 2))}


@pytest.mark.parametrize("cell", [(0, 5, 1), (0, 5, 2), (1, 2, 2),
                                  (1, 3, 2)],
                         ids=["0-5-1", "0-5-2", "1-2-2", "1-3-2"])
def test_swap_maps_are_permutations_with_the_braid_relations(cell):
    """Extraction reads leg orbits from the ("swap", i) maps, so each must
    permute the cell's basis with coefficient 1, and the maps must satisfy
    s_i^2 = 1, s_i s_(i+1) s_i = s_(i+1) s_i s_(i+1) and s_i s_j = s_j s_i
    for |i - j| >= 2.  Each must also move the partial pairing as the swap
    moves the psi-kappa monomials: <s_i a, m> = <a, s_i m>, which fails when
    a half-edge psi stays behind as the vertices of the graph are
    reordered."""
    g, n, _ = cell
    size = len(cell_basis(cell)[0])
    _, monomials, pairing = pairing_matrix(*cell)
    column = {m.key(): c for c, m in enumerate(monomials)}
    swaps = {}
    for i in range(1, n):
        opmap = operator_map(cell, ("swap", i), cell)
        assert all(list(row.values()) == [1] for row in opmap)
        perm = tuple(k for (k,) in opmap)
        assert sorted(perm) == list(range(size))
        swaps[i] = perm
        label = {i: i + 1, i + 1: i}
        moved = [column[DecoratedGraph.smooth(
            g, n, {label.get(l, l): e for l, e in m.leg_psi},
            m.kappa[0]).key()] for m in monomials]
        for j, k in enumerate(perm):
            assert [pairing[k][c] for c in range(len(monomials))] == \
                [pairing[j][c] for c in moved]

    def word(*letters):
        # the permutation s_a s_b ... of the columns, rightmost first
        out = tuple(range(size))
        for i in reversed(letters):
            out = tuple(swaps[i][k] for k in out)
        return out

    identity = tuple(range(size))
    assert any(perm != identity for perm in swaps.values())
    for i in swaps:
        assert word(i, i) == identity
        if i + 1 in swaps:
            assert word(i, i + 1, i) == word(i + 1, i, i + 1)
        for j in swaps:
            if abs(i - j) >= 2:
                assert word(i, j) == word(j, i)


def test_closed_artifact_bytes_independent_of_order():
    # shuffled generators, closed in one pass or with a closure half way:
    # different closure paths, one span, one document
    cells = [(0, 4, 1), (1, 1, 1), (1, 2, 1), (0, 5, 2)]
    rs = extract_relations(a2_spec(), cells)
    generators = [(cell, vec) for cell in cells for vec in rs.vectors(cell)]
    documents = []
    for seed in (1, 2):
        rng = random.Random(seed)
        order = rng.sample(generators, len(generators))
        split = rng.randint(1, len(order) - 1)
        closed = RelationSet(cells)
        for cell, vec in order[:split]:
            closed.add(cell, vec)
        if seed == 2:
            closed = close_relations(closed)
        for cell, vec in order[split:]:
            closed.add(cell, vec)
        documents.append(json.dumps(relations_to_json(close_relations(closed))))
    assert documents[0] == documents[1]


def test_parent_format_document_loads():
    # older files list rows in acceptance order with a provenance tag each
    cells = [(1, 1, 1), (0, 4, 1)]
    rs = close_relations(extract_relations(a2_spec(), cells))
    doc = relations_to_json(rs)
    for cell in doc["cells"]:
        cell["relations"].reverse()
        cell["provenance"] = [["glue"] for _ in cell["relations"]]
    back = relations_from_json(json.loads(json.dumps(doc)))
    assert {cell: v for cell, (v, _) in compare_spans(rs, back).items()} == \
        {cell: "equal" for cell in cells}
    assert relations_to_json(back) == relations_to_json(rs)


def test_canonical_labeling_memoized_tuple_coset():
    # vertices 0 and 1 are interchangeable: a coset of two permutations
    args = ((1, 1, 0), ((), (), (1,)), ((0, 2), (1, 2)))
    first = _canonical_labeling(*args)
    coset = first[3]
    assert isinstance(coset, tuple) and len(coset) == 2
    assert all(isinstance(p, tuple) for p in coset)
    assert _canonical_labeling(*args) is first
    assert _canonical_labeling.__wrapped__(*args) == first


def _worklist_closure(rs):
    """The closure in its earlier order, kept as an oracle: start from the
    rows of ``rs`` and process every accepted image once, last in first
    out.  The rows of ``rs`` are added one by one, so a set whose rows are
    not reduced is closed as well."""
    out = RelationSet(rs.cells)
    frontier = []
    for cell in rs.cells:
        for row in rs.pivots[cell].values():
            out.add(cell, row)
            frontier.append((cell, dict(row)))
    maps = {}
    while frontier:
        cell, row = frontier.pop()
        if cell not in maps:
            maps[cell] = [(target, operator_map(cell, op, target))
                          for op, target in closure_operations(cell, rs.cells)]
        for target, opmap in maps[cell]:
            image = {}
            for c, x in row.items():
                for t, y in opmap[c].items():
                    image[t] = image.get(t, 0) + x * y
            if any(image.values()) and out.add(target, image):
                frontier.append((target, image))
    return out


def test_priority_closure_matches_worklist_oracle():
    # driver A2 as extracted, then with every cell's rows replaced by random
    # integer combinations with 40- to 60-bit coefficients: the same spans,
    # so the same RREF pivots from either order
    rs, closed = driver_a2()
    assert closed.pivots == _worklist_closure(rs).pivots
    rng = random.Random(1518)
    mixed = RelationSet(rs.cells)
    for cell in rs.cells:
        rows = list(rs.pivots[cell].values())
        combos = []
        for i in range(len(rows)):
            combo = {}
            picks = {i} | set(rng.sample(range(len(rows)),
                                         min(2, len(rows))))
            for j in picks:
                k = rng.choice((-1, 1)) * rng.randrange(2 ** 40, 2 ** 60)
                for c, x in rows[j].items():
                    combo[c] = combo.get(c, 0) + k * x
            combos.append({c: x for c, x in combo.items() if x})
        mixed.pivots[cell] = dict(enumerate(combos))    # rows not reduced
        same = RelationSet([cell])
        for row in combos:
            same.add(cell, row)
        assert same.pivots[cell] == rs.pivots[cell]
    assert close_relations(mixed).pivots == closed.pivots
    assert _worklist_closure(mixed).pivots == closed.pivots
    # the swap closure first and the other operations after it against the
    # one-phase oracle on A2xA1 (c = 1 and c = -2/3) and A3
    for name in ("a2xa1-c1", "a2xa1-c-2/3", "a3"):
        spec, cells = chart_spec(name)
        rs = extract_relations(spec, cells)
        assert close_relations(rs).pivots == _worklist_closure(rs).pivots, name
