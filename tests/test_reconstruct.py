import hashlib
import itertools
import json
from collections import Counter
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest

from tautrel.charts import (a2_expansion, a2x_a1_expansion, a3_expansion,
                            extend_chart,
                            a2_chart, family_expansion)
from tautrel.frobenius import ChartExpansion, idempotent_frame
from tautrel.graphs import (DecoratedGraph, StrataVector,
                            enumerate_stable_graphs, multiply_psi)
from tautrel.intersect import integrate_strata
from tautrel.multipoly import MultiPoly as MP
from tautrel.puiseux import PuiseuxSeries as PS, SeriesMatrix
from tautrel import reconstruct
from tautrel.reconstruct import (CohFTSpec, dilaton_leaf,
                                 edge_series, genus_one_correlator,
                                 leg_series, reconstruct_class,
                                 to_normalized_insertion, unit_insertions)
from tautrel.relations import leg_orbits
from tautrel.rmatrix import RMatrix, solve_flatness

V = MP.var


def family_spec(f, K=2, trunc=9):
    exp = family_expansion(f, trunc=trunc)
    frame = idempotent_frame(exp)
    return CohFTSpec(frame, solve_flatness(frame, K=K))


def test_tqft_case_split():
    # the TQFT value of n legs of color i in genus g is Delta_i^((2g-2+n)/2)
    spec = family_spec(V("t"))
    for i in range(2):
        # n = 3, g = 0: Delta_i^(1/2)
        got = spec.delta_power(i, 1)
        assert (got - spec.frame.sqrt_delta[i]).is_zero()
        # n = 0, g = 2: Delta_i
        got = spec.delta_power(i, 2)
        assert (got - spec.frame.delta[i]).is_zero()


def test_leg_term_basics():
    spec = family_spec(V("t"))
    v = to_normalized_insertion(spec.frame, [1, 0])
    legs = leg_series(spec, v)
    # one component list per order of A, the z^p term being A[p] v
    assert len(legs) == len(spec.R.orders)
    for p, comps in enumerate(legs):
        want = spec.R.orders[p].apply(v)
        assert all((a - b).is_zero() for a, b in zip(comps, want))
    for i in range(2):
        assert (legs[0][i] - v[i]).is_zero()  # z^0 term is the vector itself
    assert leg_series(spec, v) is legs  # formed once per spec and vector


def test_edge_term_symmetry_and_z0():
    spec = family_spec(V("t"))
    B = edge_series(spec, 2)
    # symmetry under swapping the two sides with transpose
    for (p, q), mat in B.items():
        if (q, p) in B:
            assert (mat - B[(q, p)].transpose()).is_zero()
    # the (0,0) coefficient is minus the z^1-term of the leg series
    R1 = spec.R[1]
    assert (B[(0, 0)] + R1).is_zero()


def test_dilaton_leaf_values():
    spec = family_spec(V("t"))
    T = dilaton_leaf(spec, 3)
    assert 1 not in T          # T = O(psi^2)
    unit = spec.frame.unit_normalized()
    want = spec.R[1].apply(unit)
    for i in range(2):
        assert (T[2][i] + want[i]).is_zero()
    # identity R-matrix: T = 0
    ident = RMatrix(spec.frame, [SeriesMatrix.identity(2, "t"),
                                 SeriesMatrix.zero(2, 2, "t"),
                                 SeriesMatrix.zero(2, 2, "t")], {})
    spec_id = CohFTSpec(spec.frame, ident)
    assert not dilaton_leaf(spec_id, 3)


def test_reconstruction_03_is_tqft():
    # dim(M_{0,3}) = 0: the class is the A-tensor value, no corrections
    spec = family_spec(V("t"))
    frame = spec.frame
    exp = frame.expansion
    basis = [[1, 0], [0, 1]]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                ins = [to_normalized_insertion(frame, basis[m])
                       for m in (i, j, k)]
                cls = reconstruct_class(spec, 0, 3, ins, 0)
                vecs = [[PS.const(x, "t") for x in basis[m]] for m in (i, j, k)]
                want = exp.pairing(exp.product(vecs[0], vecs[1]), vecs[2])
                got = PS.zero("t")
                for dg, coeff in cls.terms.items():
                    assert dg.codim() == 0
                    got = got + coeff
                assert (got - want).is_zero()


def test_unit_axiom_on_03():
    # Omega_{0,3}(v, w, 1) = eta(v, w)
    spec = family_spec(V("t"))
    frame = spec.frame
    eta = frame.expansion.chart.metric
    for v_flat in ([1, 0], [0, 1], [2, 3]):
        for w_flat in ([1, 0], [0, 1]):
            ins = [to_normalized_insertion(frame, v_flat),
                   to_normalized_insertion(frame, w_flat),
                   to_normalized_insertion(frame, [1, 0])]
            cls = reconstruct_class(spec, 0, 3, ins, 0)
            got = PS.zero("t")
            for dg, coeff in cls.terms.items():
                got = got + coeff
            want = sum(eta[i][j] * F(v_flat[i]) * F(w_flat[j])
                       for i in range(2) for j in range(2))
            assert (got - want).is_zero()


def test_identity_rmatrix_gives_pure_tqft():
    spec = family_spec(V("t"))
    ident = RMatrix(spec.frame, [SeriesMatrix.identity(2, "t"),
                                 SeriesMatrix.zero(2, 2, "t"),
                                 SeriesMatrix.zero(2, 2, "t")], {})
    spec_id = CohFTSpec(spec.frame, ident)
    ins = [to_normalized_insertion(spec.frame, [0, 1])]
    cls = reconstruct_class(spec_id, 1, 1, ins, 1)
    for dg, coeff in cls.terms.items():
        if dg.codim() > 0:
            assert coeff.is_zero()


def test_degree_zero_part_is_tqft():
    spec = family_spec(V("t") * (V("t") + 1))
    ins = [to_normalized_insertion(spec.frame, [0, 1])]
    cls = reconstruct_class(spec, 1, 1, ins, 1)
    part = cls.codim_part(0)
    v = ins[0]
    want = sum((spec.delta_power(i, 1) * v[i] for i in range(2)), PS.zero("t"))
    got = PS.zero("t")
    for dg, c in part.terms.items():
        got = got + c
    assert (got - want).is_zero()


def test_family_11_coefficients():
    """The orientation is pinned by the genus-zero and exponential-chart
    anchors (see test_orientation_anchors); the correlator equals -gamma and
    the closed genus-one formula agrees exactly."""
    t = V("t")
    for fpoly in (t, t * (t + 1)):
        spec = family_spec(fpoly)
        frame = spec.frame
        cls = reconstruct_class(spec, 1, 1,
                                [to_normalized_insertion(frame, [0, 1])], 1)
        fs = PS.from_poly(fpoly, "t")
        from tautrel.rmatrix import solve_2d_family
        gpoly = solve_2d_family(fpoly).gamma_global
        gamma = PS.from_poly(gpoly, "t") if gpoly is not None else PS.zero("t")
        fdf = fs.derivative() * fs.invert(trunc=6)
        want = {
            "psi": (gamma + fdf * F(7, 48)) * 2,
            "kappa": (gamma - fdf * F(5, 48)) * (-2),
            "delta_raw": -(gamma + fdf * F(1, 48)),
        }
        got = {}
        for dg, c in cls.codim_part(1).terms.items():
            if dg.graph.edges:
                got["delta_raw"] = c
            elif dg.kappa[0]:
                got["kappa"] = c
            else:
                got["psi"] = c
        for key in want:
            assert (got[key] - want[key]).is_zero(), (fpoly, key)
        # the correlator integral equals -gamma
        assert (integrate_strata(cls.codim_part(1)) + gamma).is_zero()
        # and the closed genus-one formula agrees
        assert (genus_one_correlator(spec, [0, 1]) + gamma).is_zero()


def test_orientation_anchors():
    """Two independent anchors for the sign of the action: genus-zero
    integrals are potential derivatives, and the exponential chart
    (the projective-line quantum product) has genus-one one-point -1/24."""
    import itertools
    spec = family_spec(V("t") * (V("t") + 1), K=3, trunc=10)
    frame = spec.frame
    exp = frame.expansion
    chart = exp.chart
    for n, d in [(4, 1)]:
        for combo in itertools.combinations_with_replacement(range(2), n):
            ins = [to_normalized_insertion(frame, [1 if k == m else 0
                                                   for k in range(2)])
                   for m in combo]
            cls = reconstruct_class(spec, 0, n, ins, d)
            got = integrate_strata(cls.codim_part(n - 3))
            if isinstance(got, F):
                got = PS.const(got, "t")
            p = chart.potential
            for i in combo:
                p = p.derivative(chart.coords[i])
            assert (got - exp.poly_series(p)).is_zero(), combo
    # exponential chart with the homogeneous branch gamma = 1/24
    t = V("t")
    expf = MP_const_exp(8)
    exp2 = __import__("tautrel.charts", fromlist=["family_expansion"]).family_expansion(expf, trunc=8)
    fr = idempotent_frame(exp2)
    fs = PS.from_poly(expf, "t").truncate(8)
    gamma = PS.const(F(1, 24), "t")
    finv = fs.invert(trunc=6)
    c = gamma * finv - fs.derivative() * finv * finv * F(5, 48)
    b = fs * c + fs.derivative() * finv * F(1, 4)
    zero = PS.zero("t")
    R1_flat = SeriesMatrix([[zero, b], [c, zero]])
    R1_norm = fr.psi_inv() * R1_flat * fr.psi
    R = RMatrix(fr, [SeriesMatrix.identity(2, "t"), R1_norm], {})
    R.check_symplectic()
    spec2 = CohFTSpec(fr, R)
    cls = reconstruct_class(spec2, 1, 1, [to_normalized_insertion(fr, [0, 1])], 1)
    integ = integrate_strata(cls.codim_part(1))
    assert (integ - PS.const(F(-1, 24), "t")).is_zero()


def MP_const_exp(order):
    t = V("t")
    out = __import__("tautrel.multipoly", fromlist=["MultiPoly"]).MultiPoly.const(1)
    fact = 1
    for k in range(1, order + 1):
        fact *= k
        out = out + t ** k / fact
    return out


def test_gluing_axiom_shadow_delta0():
    # the delta_0 coefficient equals the direct edge/vertex bookkeeping:
    # (1/2) sum_colors omega_{0,3}(v, B(0,0)-bivector)
    spec = family_spec(V("t") * (V("t") + 1))
    frame = spec.frame
    ins = to_normalized_insertion(frame, [0, 1])
    cls = reconstruct_class(spec, 1, 1, [ins], 1)
    delta_raw = next(c for dg, c in cls.codim_part(1).terms.items()
                     if dg.graph.edges)
    B = edge_series(spec, 0)[(0, 0)]  # now -R^1
    # omega_{0,3} of vertex colour c is nonzero only when all three slots
    # (the leg and both half-edges) carry colour c
    total = PS.zero("t")
    for c in range(2):
        total = total + spec.delta_power(c, 1) * ins[c] * B.entries[c][c]
    total = total * F(1, 2)
    assert (delta_raw - total).is_zero()


def test_specialized_shift_matches_target_theory():
    """The Delta-shift specialization: with v_i = Delta2^{-1/2} - Delta1^{-1/2}
    the shifted vertex data is the target theory's own: the shifted Delta^{1/2}
    is the frame's, and the dilaton vector 1_{Omega2} - v is its unit, so the
    target's spec of frame and R reconstructs the shifted class."""
    exp1 = a2x_a1_expansion(1, trunc=9)
    exp2 = a2x_a1_expansion(2, trunc=9)
    fr1 = idempotent_frame(exp1)
    fr2 = idempotent_frame(exp2)
    # identify normalized idempotents: both frames share the A2 block and a
    # constant third direction; vi = Delta2i^{-1/2} - Delta1i^{-1/2}
    match = []
    for i in range(3):
        found = next(j for j in range(3)
                     if (fr1.u[i] - _drop_w_terms(fr2.u[j])).is_zero()
                     or (fr1.u[i] - fr2.u[j]).is_zero())
        match.append(found)
    d2_half_inv = [fr2.sqrt_delta[match[i]].invert() for i in range(3)]
    d1_half_inv = [fr1.sqrt_delta[i].invert() for i in range(3)]
    shifted_sqrt_delta = [(d2_half_inv[i] - (d2_half_inv[i] - d1_half_inv[i])).invert()
                          for i in range(3)]
    for i in range(3):
        assert (shifted_sqrt_delta[i] - fr1.sqrt_delta[i]).is_zero()
    # vertex kernel vector: 1_{Omega2} - v = 1_{Omega1}
    unit2 = d2_half_inv
    v = [unit2[i] - d1_half_inv[i] for i in range(3)]
    kernel = [unit2[i] - v[i] for i in range(3)]
    for got, want in zip(kernel, fr1.unit_normalized()):
        assert (got - want).is_zero()


def _drop_w_terms(series):
    from tautrel.multipoly import MultiPoly
    from tautrel.puiseux import PuiseuxSeries
    coeffs = {}
    for key, poly in series.coeffs.items():
        kept = {m: c for m, c in poly.terms.items()
                if not any(s.startswith("w") for s, _ in m)}
        p = MultiPoly(kept)
        if not p.is_zero():
            coeffs[key] = p
    return PuiseuxSeries(series.param, coeffs, series.ram, series.trunc)


def test_extension_tqft_values():
    # extended chart: all-v inputs give c^(1-g); mixed inputs vanish
    c = F(2)
    chart = extend_chart(a2_chart(), c)
    exp = ChartExpansion(chart, "t1",
                         {"t0": V("t0"), "t1": V("t1"), "w2": V("w2")}, trunc=7)
    frame = idempotent_frame(exp)
    # v is the idempotent in the new direction: flat vector d/dw2
    v_flat = [0, 0, 1]
    vn = frame.to_normalized([PS.const(x, "t1") for x in v_flat])
    spec = CohFTSpec(frame, solve_flatness(frame, K=1))
    # find the color of the constant idempotent
    # omega_{0,3}(v,v,v) = c and for g = 2, n = 0 the value includes 1/c
    total = PS.zero("t1")
    for i in range(3):
        total = total + spec.delta_power(i, 1) * vn[i] ** 3
    assert (total - c).is_zero()
    # the new unit is d/dt0, so omega(v, v, unit) = eta'(v, v) = c
    unit = frame.to_normalized([PS.const(1, "t1"), PS.zero("t1"), PS.zero("t1")])
    with_unit = PS.zero("t1")
    for i in range(3):
        with_unit = with_unit + spec.delta_power(i, 1) * vn[i] * vn[i] * unit[i]
    assert (with_unit - c).is_zero()
    # mixed v-and-V input vanishes: the old unit inside V is d/dt0 - d/dw2
    e_old = frame.to_normalized([PS.const(1, "t1"), PS.zero("t1"),
                                 PS.const(-1, "t1")])
    mixed = PS.zero("t1")
    for i in range(3):
        mixed = mixed + spec.delta_power(i, 1) * vn[i] * vn[i] * e_old[i]
    assert mixed.is_zero()


def test_class_symmetry_under_leg_permutation():
    # Omega is symmetric: permuting insertions permutes the legs
    from tautrel.relations import relabel_legs
    spec = family_spec(V("t") * (V("t") + 1))
    frame = spec.frame
    e0 = to_normalized_insertion(frame, [1, 0])
    e1 = to_normalized_insertion(frame, [0, 1])
    a = reconstruct_class(spec, 0, 4, [e1, e0, e1, e1], 1)
    b = reconstruct_class(spec, 0, 4, [e1, e1, e1, e0], 1)
    perm = {1: 1, 2: 4, 3: 3, 4: 2}  # swap slots 2 and 4
    b_perm = relabel_legs(b, perm)
    keys = set(a.terms) | set(b_perm.terms)
    for dg in keys:
        diff = a.terms.get(dg, PS.zero("t")) - b_perm.terms.get(dg, PS.zero("t"))
        assert diff.is_zero()


def test_cached_contraction_plans_do_not_change_the_class():
    """A spec whose plan cache other cells and tuples have filled gives the
    same classes, truncations included, as a fresh spec.  One warm spec
    builds the cells in order of bound, the other builds (0, 5, 2) first, so
    that the codim-1 cells read its edge bivector and vertex k-sums below
    the bound they were formed at."""
    frame = idempotent_frame(a2_expansion(trunc=10))
    R = solve_flatness(frame, K=3)
    units = unit_insertions(frame)
    cells = [(0, 4, 1), (1, 1, 1), (0, 5, 2)]
    tuples = {(g, n, d): [[units[mu] for mu in combo] for combo in
                          itertools.combinations_with_replacement(range(2), n)]
              for g, n, d in cells}
    fresh = {(cell, k): reconstruct_class(CohFTSpec(frame, R), *cell[:2],
                                          insertions, cell[2])
             for cell in cells for k, insertions in enumerate(tuples[cell])}
    for order in (cells, cells[::-1]):
        warm = CohFTSpec(frame, R)
        for g, n, d in order:
            reconstruct_class(warm, g, n, tuples[g, n, d][-1], d)
        for (cell, k), want in fresh.items():
            g, n, d = cell
            _assert_same_class(
                reconstruct_class(warm, g, n, tuples[cell][k], d), want)
    sizes = {}
    for (cell, _), cls in fresh.items():
        sizes.setdefault(cell[:2], []).append(len(cls.terms))
    assert max(sizes[0, 4]) > 0 and max(sizes[1, 1]) > 0
    # only the all-unit tuple gives the zero class
    assert min(sizes[0, 5][1:]) > 0


@pytest.mark.parametrize("expansion", [
    lambda: a2_expansion(trunc=8),
    lambda: a2x_a1_expansion(1, trunc=8),
    lambda: a3_expansion(trunc=8),
], ids=["a2", "a2xa1", "a3"])
def test_graph_sum_series_restrict_to_smaller_bounds(expansion):
    """The edge bivector and the vertex k-sums formed at bound 3 hold those
    formed at bound 1, each on a fresh spec, values and truncations
    included: the plan reads them below the bound they were formed at.  A
    plan of bound b keeps the edge bivector to degree b - 1, the empty one
    at bound 0."""
    frame = idempotent_frame(expansion())
    R = solve_flatness(frame, K=3)
    low = edge_series(CohFTSpec(frame, R), 1)
    high = edge_series(CohFTSpec(frame, R), 3)
    assert low and set(low) < set(high)
    assert all(p + q <= 1 for p, q in low)
    assert {pq for pq in high if sum(pq) <= 1} == set(low)
    for pq, mat in low.items():
        assert mat.entries == high[pq].entries
    spec = CohFTSpec(frame, R)
    reconstruct.contraction_plan(spec, 0, 3, 0)
    assert spec._edge_cache == (-1, {})
    reconstruct.contraction_plan(spec, 0, 5, 2)
    degree, B = spec._edge_cache
    assert degree == 1 and set(B) == set(low)
    sizes = []
    for gv, nmark in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 0)]:
        for color in range(frame.dim):
            low = reconstruct.vertex_contributions(
                CohFTSpec(frame, R), gv, nmark, color, 1)
            high = reconstruct.vertex_contributions(
                CohFTSpec(frame, R), gv, nmark, color, 3)
            assert low == {key: s for key, s in high.items() if key[0] <= 1}
            sizes.append(len(high) - len(low))
    assert max(sizes) > 0


def test_class_needs_the_r_matrix_to_its_codim():
    """A class to codim d reads A(psi) to psi^d, so the plan raises on an
    R-matrix of lower order rather than return a class that lacks terms: the
    (0,5) class of e1^5 to codim 2 on A2 has 127 codim-2 coefficients, with
    the R-matrix to z^2 as to z^3.  The codim reconstructed is min(codim,
    3g - 3 + n), so the (1,1) class asked to codim 2 runs with the R-matrix
    to z^1."""
    frame = idempotent_frame(a2_expansion(trunc=10))
    e1 = unit_insertions(frame)[1]
    low = CohFTSpec(frame, solve_flatness(frame, K=1))
    with pytest.raises(ValueError, match=r"codim 2 needs the R-matrix to z\^2"):
        reconstruct_class(low, 0, 5, [e1] * 5, 2)
    with pytest.raises(ValueError):
        reconstruct.contraction_plan(low, 1, 2, 2)
    assert reconstruct_class(low, 1, 1, [e1], 2).terms
    counts = []
    for K in (2, 3):
        spec = CohFTSpec(frame, solve_flatness(frame, K=K))
        cls = reconstruct_class(spec, 0, 5, [e1] * 5, 2)
        counts.append(len(cls.codim_part(2).terms))
    assert counts == [127, 127]


@pytest.mark.parametrize("expansion, probe, cells", [
    # (1, 3, 2) has 16 graphs in 8 shapes, among them repeated shapes with
    # |Aut| = 2, a double edge and a loop
    (lambda: a2_expansion(trunc=10), None,
     [(0, 5, 1), (0, 5, 2), (1, 2, 2), (2, 0, 2), (1, 3, 2)]),
    # c = 1: the A1 color gives zero leg components
    (lambda: a2x_a1_expansion(1, trunc=8), None,
     [(0, 5, 1), (0, 5, 2), (1, 2, 2), (2, 0, 2), (1, 3, 2)]),
    (lambda: a2x_a1_expansion(F(-2, 3), trunc=8), None,
     [(0, 5, 1), (0, 5, 2), (1, 2, 2), (1, 3, 2)]),
    # (0, 5, 2) would take a3 about 5 s
    (lambda: a3_expansion(trunc=8), [0, 1, 0], [(1, 2, 2), (2, 0, 2)]),
], ids=["a2", "a2xa1", "a2xa1-c-2/3", "a3"])
def test_plan_matches_per_call_grouping(expansion, probe, cells):
    """For every insertion tuple of flat basis fields, the class contracted
    on the cached plan is the class summed afresh per call in leg order
    (``_leg_order_class``), truncations and strings included, on a cold spec
    and on a warm one whose plan another tuple built.  So is the class
    that extraction forms on the warm spec, one coefficient per orbit of
    the transpositions of adjacent equal insertions (``leg_orbits``), and
    the one of the unsorted tuple (0, 1, 0) on (1, 3, 2), whose repeated
    insertions are not adjacent."""
    frame = idempotent_frame(expansion(), probe=probe)
    R = solve_flatness(frame, K=3)
    units = unit_insertions(frame)
    oracle_spec = CohFTSpec(frame, R)
    sizes = []
    shared = 0      # graphs in orbits of more than one element
    for g, n, d in cells:
        warm = CohFTSpec(frame, R)
        combos = list(itertools.combinations_with_replacement(
            range(frame.dim), n))
        reconstruct_class(warm, g, n, [units[mu] for mu in combos[-1]], d)
        if (g, n) == (1, 3):
            combos.append((0, 1, 0))
        for combo in combos:
            insertions = [units[mu] for mu in combo]
            want = _leg_order_class(oracle_spec, g, n,
                                    [(v, 0) for v in insertions], d)
            for spec in (CohFTSpec(frame, R), warm):
                got = reconstruct_class(spec, g, n, insertions, d)
                _assert_same_class(got, want)
            orbits = leg_orbits(g, n, d, combo)
            _assert_same_class(
                reconstruct_class(warm, g, n, insertions, d, orbits), want)
            sizes.append(len(want.terms))
            shared += len(orbits)
    assert max(sizes) > 0 and shared > 0


@pytest.mark.parametrize("expansion, combos", [
    (lambda: a2_expansion(trunc=10), [(0, 0, 0, 0, 0, 1), (0, 0, 0, 1, 1, 1)]),
    (lambda: a2x_a1_expansion(1, trunc=8),
     [(0, 0, 0, 1, 1, 1), (0, 0, 0, 0, 2, 2)]),
], ids=["a2", "a2xa1"])
def test_isomorphic_shapes_share_their_terms(monkeypatch, expansion, combos):
    """A plan build forms the terms once per isomorphism class of leg-free
    shape and |Aut|: 3 on (0, 5, 2), whose graphs have 6 vertex orders of
    them, 5 on (0, 6, 2), with 13, and 8 on (1, 3, 2), with 11.  On (0, 6,
    2), where the graphs of a shape reach it through vertex maps that
    reverse edges, the class is still the class summed afresh in leg order,
    on a cold spec and on a warm one."""
    frame = idempotent_frame(expansion())
    R = solve_flatness(frame, K=3)
    builds = []
    shape_terms = reconstruct._shape_terms

    def counted(spec, shape, B, bound):
        builds.append(shape)
        return shape_terms(spec, shape, B, bound)

    monkeypatch.setattr(reconstruct, "_shape_terms", counted)
    spec = CohFTSpec(frame, R)
    counts = []
    for g, n, d in [(0, 5, 2), (0, 6, 2), (1, 3, 2)]:
        builds.clear()
        reconstruct.contraction_plan(spec, g, n, d)
        counts.append(len(builds))
    assert counts == [3, 5, 8]
    units = unit_insertions(frame)
    warm = CohFTSpec(frame, R)
    reconstruct_class(warm, 0, 6, [units[-1]] * 6, 2)
    for combo in combos:
        insertions = [units[mu] for mu in combo]
        want = _leg_order_class(spec, 0, 6, [(v, 0) for v in insertions], 2)
        assert want.terms
        for sp in (CohFTSpec(frame, R), warm):
            _assert_same_class(reconstruct_class(sp, 0, 6, insertions, 2),
                               want)


def test_second_tuple_reads_the_plan_alone(monkeypatch):
    """A plan build forms one DecoratedGraph per distinct (graph, edge psi,
    kappa) decoration; on the warm spec, another insertion tuple of the same
    (g, n, bound) forms no graph term, no edge series and no decorated
    graph."""
    frame = idempotent_frame(a2x_a1_expansion(1, trunc=8))
    spec = CohFTSpec(frame, solve_flatness(frame, K=3))
    e0, e1, e2 = unit_insertions(frame)
    built = []

    class Counted(DecoratedGraph):
        def __init__(self, graph, leg_psi=None, edge_psi=None, kappa=None):
            built.append((graph.key(), tuple(edge_psi), tuple(kappa)))
            super().__init__(graph, leg_psi, edge_psi, kappa)

    monkeypatch.setattr(reconstruct, "DecoratedGraph", Counted)
    assert reconstruct_class(spec, 1, 2, [e0, e1], 2).terms
    assert built and len(built) == len(set(built))
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("_graph_terms", "edge_series"):
        monkeypatch.setattr(reconstruct, name,
                            counted(name, getattr(reconstruct, name)))
    monkeypatch.setattr(DecoratedGraph, "_store",
                        counted("_store", DecoratedGraph._store))
    assert reconstruct_class(spec, 1, 2, [e1, e1], 2).terms
    assert reconstruct_class(spec, 1, 2, [e2, e2], 2).terms
    assert not calls


def _direct_leg_psi_weights(spec, graph, leg_psi, B, bound):
    """The terms of one graph with leg psi ``leg_psi``, formed directly: a
    list of (coloring, DecoratedGraph, series), every vertex k-sum read at
    the budget left after the legs and edges, every product chained afresh
    and every decorated graph minimized from its raw decoration."""
    E = len(graph.edges)
    nv = graph.num_vertices
    nmarks = [len(graph.vertex_markings(v)) for v in range(nv)]
    psi_by_label = dict(enumerate(leg_psi, start=1))
    inv_aut = PS.const(F(1, graph.aut_order()), spec.param)
    rem1 = bound - E - sum(leg_psi)
    p_values = sorted({p for p, q in B})
    q_values = sorted({q for p, q in B})
    entries = []
    for edge_assign in reconstruct._bounded_assignments(
            [p_values] * E + [q_values] * E, rem1):
        edge_psi = list(zip(edge_assign[:E], edge_assign[E:]))
        mats = [B.get(pq) for pq in edge_psi]
        if None in mats:
            continue
        rem = rem1 - sum(edge_assign)
        for coloring in itertools.product(range(spec.dim), repeat=nv):
            edge_entries = [mat.entries[coloring[a]][coloring[b]]
                            for mat, (a, b) in zip(mats, graph.edges)]
            if any(e.is_zero() for e in edge_entries):
                continue
            factor = inv_aut
            for e in edge_entries:
                factor = factor * e
            vertex_terms = [sorted(reconstruct.vertex_contributions(
                spec, graph.genera[v], nmarks[v], coloring[v], rem).items())
                for v in range(nv)]
            for combo in itertools.product(*vertex_terms):
                if sum(key[0] for key, _ in combo) > rem:
                    continue
                coeff = factor
                for _, series in combo:
                    coeff = coeff * series
                if coeff.is_zero():
                    continue
                dg = DecoratedGraph(graph, psi_by_label, edge_psi,
                                    [key[1] for key, _ in combo])
                if dg.codim() <= bound:
                    entries.append((coloring, dg, coeff))
    return entries


def _leg_order_class(spec, g, n, insertions, codim_bound):
    """The graph sum of legs (v, w), whose leg factor is psi^w A(psi) v,
    with every leg factor multiplied in label order, from leg components
    formed afresh for each leg and graph terms formed directly for each leg
    psi (``_direct_leg_psi_weights``)."""
    bound = min(codim_bound, 3 * g - 3 + n)
    A = spec.R.orders
    legs_data = [{p + w: A[p].apply(v)
                  for p in range(min(len(A), bound + 1 - w))}
                 for v, w in insertions]
    one = PS.const(1, spec.param)
    pairs = []
    B = edge_series(spec, bound)
    for graph in enumerate_stable_graphs(g, n, bound):
        leg_vertex = {label: v for v, legs in enumerate(graph.legs)
                      for label in legs}
        for leg_psi in reconstruct._bounded_assignments(
                [sorted(data) for data in legs_data], bound - len(graph.edges)):
            comps = [data[p] for data, p in zip(legs_data, leg_psi)]
            for coloring, dg, weight in _direct_leg_psi_weights(
                    spec, graph, leg_psi, B, bound):
                parts = [comp[coloring[leg_vertex[label]]]
                         for label, comp in enumerate(comps, start=1)]
                factor = reduce(mul, parts) if parts else one
                if not factor.is_zero():
                    pairs.append((dg, factor * weight))
    return StrataVector(g, n, pairs)


def _assert_same_class(a, b):
    assert a.terms.keys() == b.terms.keys()
    for dg, c in a.terms.items():
        assert c == b.terms[dg] and c.trunc == b.terms[dg].trunc
        assert str(c) == str(b.terms[dg])


def test_shared_leg_products_match_leg_order():
    """Leg factors shared through their sorted (class, psi, color) prefixes
    give the class of the label-order products, truncations included.  A leg
    (v, w) of the oracle carries psi^w: the class of the plain vectors,
    reconstructed to the codim left after the weights and multiplied by
    psi^w on each weighted leg, is the oracle's class of the weighted legs."""
    frame = idempotent_frame(a2x_a1_expansion(1, trunc=8))
    spec = CohFTSpec(frame, solve_flatness(frame, K=3))
    e0, e1, e2 = unit_insertions(frame)
    m02 = to_normalized_insertion(frame, [1, 0, 1])
    m12 = to_normalized_insertion(frame, [0, 1, 1])
    a2_frame = idempotent_frame(a2_expansion(trunc=10))
    a2_spec = CohFTSpec(a2_frame, solve_flatness(a2_frame, K=3))
    a0, a1 = unit_insertions(a2_frame)
    cases = [
        # repeated insertions
        (spec, 0, 5, [(e0, 0), (e1, 0), (e1, 0), (e0, 0), (e1, 0)], 2),
        # one vector with psi weights 0 and 1
        (spec, 0, 5, [(e1, 0), (e1, 1), (e1, 0), (e1, 0), (e0, 0)], 2),
        (a2_spec, 0, 5, [(a0, 0), (a1, 1), (a1, 0), (a1, 0), (a1, 0)], 2),
        # non-unit vectors, repeated and psi-weighted
        (spec, 0, 5, [(m02, 0), (e1, 0), (m02, 0), (e1, 0), (e1, 0)], 2),
        (spec, 0, 5, [(m02, 0), (e1, 0), (m02, 1), (e1, 0), (m02, 0)], 2),
        (spec, 1, 3, [(m12, 0), (e1, 0), (m12, 0)], 2),
    ]
    sizes = []
    for sp, g, n, legs, codim in cases:
        got = reconstruct_class(sp, g, n, [v for v, _ in legs],
                                codim - sum(w for _, w in legs))
        for label, (_, w) in enumerate(legs, start=1):
            if w:
                got = multiply_psi(got, label, w)
        _assert_same_class(got, _leg_order_class(sp, g, n, legs, codim))
        sizes.append(len(got.terms))
    assert min(sizes) > 0


def _entry_key(entry):
    """A hashable form of a (leg colors, DecoratedGraph, series) entry that
    tells series apart by value and truncation."""
    colors, dg, s = entry
    return tuple(colors), dg, (s.param, s.ram, s.den, s.trunc, s.terms)


@pytest.mark.parametrize("expansion", [
    lambda: a2_expansion(trunc=8),
    lambda: a2x_a1_expansion(1, trunc=8),
    lambda: a3_expansion(trunc=8),
], ids=["a2", "a2xa1", "a3"])
def test_leg_psi_weights_match_direct_terms(expansion):
    """The terms of every graph and leg psi, read from the graph's terms
    formed once (those of extra codim at most the budget the leg psi leave),
    are the terms formed directly for that leg psi, as multisets of (leg
    colors, decorated graph, series), truncations included."""
    frame = idempotent_frame(expansion())
    spec = CohFTSpec(frame, solve_flatness(frame, K=3))
    sizes = []
    for g, n, d in [(0, 5, 2), (1, 2, 2), (2, 0, 2)]:
        bound = min(d, 3 * g - 3 + n)
        B = edge_series(spec, bound)
        shapes = {}
        for graph in enumerate_stable_graphs(g, n, bound):
            terms = list(reconstruct._graph_terms(spec, graph, B, bound,
                                                  shapes))
            leg_vertex = {label: v for v, legs in enumerate(graph.legs)
                          for label in legs}
            budget = bound - len(graph.edges)
            for leg_psi in reconstruct._bounded_assignments(
                    [list(range(bound + 1))] * n, budget):
                psi_by_label = dict(enumerate(leg_psi, start=1))
                got = [(colors, dg.with_leg_psi(psi_by_label), series)
                       for extra, colors, dg, series in terms
                       if extra <= budget - sum(leg_psi)]
                want = [(tuple(coloring[leg_vertex[label]]
                               for label in range(1, n + 1)), dg, series)
                        for coloring, dg, series in _direct_leg_psi_weights(
                            spec, graph, leg_psi, B, bound)]
                assert (Counter(map(_entry_key, got))
                        == Counter(map(_entry_key, want)))
                sizes.append(len(got))
    assert min(sizes) > 0


def test_reconstruct_artifact_pinned(tmp_path):
    # sha256 of `tautrel reconstruct --chart a2 --gn 1,2 --codim 2` with the
    # echoed output directory removed
    from tautrel.cli import main
    assert main(["reconstruct", "--chart", "a2", "--gn", "1,2", "--codim",
                 "2", "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "reconstruct.json").read_text())
    del data["config"]["out"]
    text = json.dumps(data, indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "98e3c594fab62b0404a5dbd634e137b386ad24ebbfb70334e2156223e9fd607a")


@pytest.mark.parametrize("argv, name, digest", [
    (["frame", "--chart", "a2"], "frame.json",
     "29967256a55ece05001bc6fcddb05446a06d6542b622eabbd3119d694dea872d"),
    (["frame", "--chart", "a2xa1", "--param", "t1"], "frame.json",
     "1ddbc0ebcaed540c5ee07fc36c672874e342235dbeef9e51ca5f3cd871e95000"),
    (["rmatrix", "--chart", "a2", "--z-order", "4"], "rmatrix.json",
     "1c66bc70ab66a6b5b2dc6c5fac3fffadf6c26e5e5ae46af24b8857aaeea20e2c"),
    (["family", "--family", "t*(t+1)"], "rmatrix_family.json",
     "f9dc9aba58f984fb73857f80dd499eb9106252e2c0f9c7a16e99ae50ca3ca9a7"),
    (["genus1", "--chart", "a2xa1", "--param", "t1"], "genus1.json",
     "982979c7d153d86ad2e0705a57c776c4d15eb9f68a4c37db1544cd0db577e24a"),
    (["reconstruct", "--chart", "a2xa1", "--param", "t1", "--gn", "0,5",
      "--codim", "2", "--insertion", "0,1,1,0,1"], "reconstruct.json",
     "738b876450b244733e786d0a090dd28c7232728d2026aea36e5870de279da34c"),
    (["frame", "--chart", "a3"], "frame.json",
     "e972e08f3e694abdbcda96356f505a7eeb841e50f619d09ed31a4353a51ce730"),
    (["rmatrix", "--chart", "a3", "--z-order", "3"], "rmatrix.json",
     "6e999ad50e107e142c68616789bda2367eced0684f2e8b98243dc308599d7f26"),
    (["genus1", "--chart", "a3"], "genus1.json",
     "a8f38520f8680f8a243cb528c822f2570a216cb3b3fc2abd64c5df8dde968e3b"),
    (["relations", "--chart", "a2", "--gn", "0,4;0,5;1,1;1,2;2,0",
      "--trunc", "12", "--z-order", "4"], "relations.json",
     "60f247e498b72cfe9502f8d0bfd4b7c98163770b6586a7f64e8ae1bf154de3ba"),
    # dimension-3 insertion multisets, some mixing the two blocks
    (["relations", "--chart", "a2xa1", "--param", "t1", "--gn",
      "0,4;0,5;1,1;1,2;2,0", "--trunc", "12", "--z-order", "4"],
     "relations.json",
     "ebc743e3488ce349346fdfa5de362cddca02083cd94c3965dee799f47d83b467"),
    (["relations", "--chart", "a2xa1"], "relations.json",
     "b509cf4bd78dd926e6badca1c4d1ba5bec6ed1d45c4447c0d2cf7489a31ea3fe"),
    (["relations", "--chart", "a3"], "relations.json",
     "3ef6246d60165ca18737b0c7a6e83c1b0fc378344e9db4566a04cdc98972563b"),
    (["frame", "--chart", "a2_tilted"], "frame.json",
     "21023c3d6da944302ea32dbd1575a08665be99166f69a9f268d20e1bf09a4d0c"),
    (["rmatrix", "--chart", "a2_tilted", "--z-order", "4"], "rmatrix.json",
     "5d68a21da19afb71f4d20633bfc8ca47d086b82048419fc305b9c722a1c5ec4d"),
    # cells where several stable graphs share one leg-free shape
    (["reconstruct", "--chart", "a2", "--gn", "1,3", "--codim", "2",
      "--insertion", "0,1,1"], "reconstruct.json",
     "ee5abf390771b36fcd8c456074902a2c19cf83a65a2b7800c2a9117e6d21b27b"),
    (["reconstruct", "--chart", "a2", "--gn", "0,6", "--codim", "2",
      "--insertion", "0,1,0,1,1,1"], "reconstruct.json",
     "048c823a67fde225687a1821f713084ec663b9b1fa9d303b6c916ef06a6527fa"),
], ids=["frame-a2", "frame-a2xa1", "rmatrix-a2", "rmatrix-family",
        "genus1-a2xa1", "reconstruct-a2xa1-repeated", "frame-a3",
        "rmatrix-a3", "genus1-a3", "relations-a2-eight-cells",
        "relations-a2xa1-eight-cells", "relations-a2xa1", "relations-a3",
        "frame-a2-tilted", "rmatrix-a2-tilted", "reconstruct-a2-13-shapes",
        "reconstruct-a2-06-shapes"])
def test_cli_artifact_pinned(tmp_path, argv, name, digest):
    # sha256 of the artifact with the echoed output directory removed
    from tautrel.cli import main
    assert main(argv + ["--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / name).read_text())
    del data["config"]["out"]
    text = json.dumps(data, indent=1, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
