"""Acceptance suite: one test per criterion, exact equality throughout.

Criteria 3b and 4a assert transcribed reference values literally and fail
honestly: those values are inconsistent with the defining equations they
accompany (3b: the quoted series do not solve the quoted equation chain;
4a: the quoted sign of the genus-one contributions contradicts the
genus-zero potential and the projective-line genus-one value -1/24, both of
which this suite verifies independently).  The companion tests 3c and 4b
carry the corrected exact statements; see README, "known discrepancies".
"""

import itertools
from fractions import Fraction as F

import pytest

from tautrel.charts import (a2_expansion, a2_tilted_expansion,
                            a2x_a1_expansion, a3_expansion, family_expansion)
from tautrel.frobenius import (idempotent_frame, local_structure_probe,
                               psi0_frame, series_rational_power)
from tautrel.graphs import DecoratedGraph, StableGraph, StrataVector, \
    forgetful_pushforward
from tautrel.intersect import integrate_strata
from tautrel.multipoly import MultiPoly as MP, monomial_power
from tautrel.puiseux import PuiseuxSeries as PS
from tautrel.reconstruct import (CohFTSpec, genus_one_correlator,
                                 reconstruct_class, to_normalized_insertion)
from tautrel.relations import (close_relations, compare_spans,
                               extract_relations, verify_relations,
                               verify_vector)
from tautrel.rmatrix import ode_series_solution, solve_2d_family, solve_flatness

V = MP.var

CELLS = [(0, 4, 1), (0, 5, 1), (0, 5, 2), (1, 1, 1),
         (1, 2, 1), (1, 2, 2), (2, 0, 1), (2, 0, 2)]

_cache = {}


def a2_pack():
    if "a2" not in _cache:
        frame = idempotent_frame(a2_expansion(trunc=12))
        _cache["a2"] = CohFTSpec(frame, solve_flatness(frame, K=4))
    return _cache["a2"]


def ext_pack(c):
    key = "ext%s" % c
    if key not in _cache:
        frame = idempotent_frame(a2x_a1_expansion(c, trunc=12))
        _cache[key] = CohFTSpec(frame, solve_flatness(frame, K=4))
    return _cache[key]


def family_pack(f):
    key = "fam%s" % f
    if key not in _cache:
        frame = idempotent_frame(family_expansion(f, trunc=10))
        _cache[key] = CohFTSpec(frame, solve_flatness(frame, K=3))
    return _cache[key]


def closed_span(spec):
    key = ("span", id(spec))
    if key not in _cache:
        _cache[key] = close_relations(extract_relations(spec, CELLS))
    return _cache[key]


def report(num, text):
    print("criterion %s: PASS - %s" % (num, text))


def test_criterion_01_a2_golden_values():
    frame = a2_pack().frame
    half = PS.const(F(1, 2), "t1")
    pm = PS.unit("t1", F(-1, 2), F(1, 2))
    plus = next(i for i in range(2) if (frame.eps[i][1] - pm).is_zero())
    minus = 1 - plus
    assert (frame.eps[plus][0] - half).is_zero()
    assert (frame.eps[minus][0] - half).is_zero()
    assert (frame.eps[minus][1] + pm).is_zero()
    t0 = PS.const(V("t0"), "t1")
    assert (frame.u[plus] - (t0 + PS.unit("t1", F(3, 2), F(2, 3)))).is_zero()
    assert (frame.u[minus] - (t0 - PS.unit("t1", F(3, 2), F(2, 3)))).is_zero()
    w = series_rational_power((frame.u[plus] - frame.u[minus]) * F(3, 4),
                              F(1, 3), trunc=6)
    rec = [w * (frame.eps[plus][mu] - frame.eps[minus][mu]) for mu in range(2)]
    assert rec[0].is_zero() and (rec[1] - 1).is_zero()
    report(1, "A2 idempotents, canonical coordinates, flat-field recovery")


def test_criterion_02_a3_golden_values():
    exp = a3_expansion(trunc=6)
    frame = idempotent_frame(exp, probe=[0, 1, 0])
    z3, phi, t0 = V("zeta3"), V("phi"), V("t0")
    zeta1 = PS.from_poly(-z3 / 2 + phi / 2, "phi")
    assert any((r - zeta1).is_zero() for r in frame.roots)
    target = PS.from_poly(F(1, 4) * z3 * phi ** 3, "phi")
    diffs = [frame.u[i] - frame.u[j] for i in range(3) for j in range(3) if i != j]
    assert any((d - target).is_zero() for d in diffs)
    u3 = PS.from_poly(t0 - F(3, 8) * z3 ** 4 + F(1, 8) * z3 ** 2 * phi ** 2, "phi")
    assert any((u - u3).is_zero() for u in frame.u)
    # three idempotent formulas, converted to the flat basis (1, x, x^2 + s2)
    t2 = exp.poly_series(V("s2"))
    def formula(beta, gamma, denom):
        dinv = PS.from_poly(denom, "phi").invert(trunc=4)
        return [(PS.from_poly(gamma, "phi") - t2) * dinv,
                PS.from_poly(beta, "phi") * dinv, dinv]
    for beta, gamma, denom in [
            (-z3 / 2 + phi / 2, -z3 ** 2 / 2 - z3 * phi / 2,
             F(-3, 2) * z3 * phi + phi ** 2 / 2),
            (-z3 / 2 - phi / 2, -z3 ** 2 / 2 + z3 * phi / 2,
             F(3, 2) * z3 * phi + phi ** 2 / 2),
            (z3, z3 ** 2 / 4 - phi ** 2 / 4,
             F(9, 4) * z3 ** 2 - phi ** 2 / 4)]:
        f = formula(beta, gamma, denom)
        assert any(all((frame.eps[i][mu] - f[mu]).is_zero() for mu in range(3))
                   for i in range(3))
    # normalized-identity x^2-coefficient at fixed phi: the identified
    # A2xA1 identity has a zeta3^(1/6)-type branch point (order -1/6 < 0)
    sqrt_minus_x1 = PS.unit("zeta3", F(1, 3),
                            MP.monomial(F(-1, 4), [("@r2", 8), ("@r3", 4), ("phi", 1)]))
    d_plus, d_minus = sqrt_minus_x1 * 2, sqrt_minus_x1 * (-2)
    denoms = [PS.from_poly(F(-3, 2) * z3 * phi + phi ** 2 / 2, "zeta3"),
              PS.from_poly(F(3, 2) * z3 * phi + phi ** 2 / 2, "zeta3"),
              PS.from_poly(F(9, 4) * z3 ** 2 - phi ** 2 / 4, "zeta3")]
    halves = [series_rational_power(d_plus, F(-1, 2), trunc=2),
              series_rational_power(d_minus, F(-1, 2), trunc=2),
              PS.const(1, "zeta3")]
    total = PS.zero("zeta3")
    for h, dd in zip(halves, denoms):
        total = total + h * dd.sqrt(trunc=3).invert(trunc=2)
    lead = total.order()
    assert lead == F(-1, 6)
    assert lead.denominator == 6 and lead < 0
    # squared form of the displayed rewriting: [sqrt(2 sqrt(-x1))/sqrt(D1)]^2
    # equals 4 zeta3^(1/3) / (c (phi - 3 zeta3)) with c = -2 (2/3)^(1/3)
    c_const = MP.monomial(F(-2), []) * monomial_power(MP.const(F(2, 3)), F(1, 3))
    lhs = d_plus * denoms[0].invert(trunc=2)
    rhs = PS.unit("zeta3", F(1, 3), 4) * \
        PS.from_poly(c_const * (phi - 3 * z3), "zeta3").invert(trunc=2)
    assert (lhs - rhs).is_zero()
    report(2, "A3 roots, canonical coordinates, idempotents, zeta3^(1/6) branch")


def test_criterion_03a_family_gamma():
    t = V("t")
    diag = solve_2d_family(t * (t + 1))
    assert diag.gamma_global == MP.const(F(1, 12)) + t * F(1, 6)
    report("3a", "gamma = t/6 + 1/12 for f = t(t+1)")


def test_criterion_03b_reference_series_as_stated():
    """Literal check of the transcribed series; fails: they do not solve
    the equation chain they are derived from (README, known discrepancies)."""
    u = V("t")
    a, b, c = 4 * u * (u - 1), 3 * u - 1, MP.const(F(-1, 8))
    d0 = ode_series_solution(a, b, c, "t", 0, 11)
    d1 = ode_series_solution(a, b, c, "t", 1, 11)
    for i in range(11):
        assert d0.coefficient(i).constant_value() == F(4 * i + 3, 8 * (4 * i + 1)), \
            "series at u=0 disagrees with the quoted value at i=%d" % i
        assert d1.coefficient(i).constant_value() == F(-(4 * i + 3), 16 * (4 * i + 2)), \
            "series at u=1 disagrees with the quoted value at i=%d" % i
    report("3b", "quoted obstruction series for f = t(t^2-1)")


def test_criterion_03c_obstruction_certified():
    t = V("t")
    diag = solve_2d_family(t * (t * t - 1))
    assert diag.gamma_global is None
    # unique local meromorphic solutions of the delta equation in u = t^2
    u = V("t")
    a, b, c = 4 * u * (u - 1), 3 * u - 1, MP.const(F(-1, 8))
    d0 = ode_series_solution(a, b, c, "t", 0, 11)
    d1 = ode_series_solution(a, b, c, "t", 1, 11)
    c0 = d0.coefficient(0).constant_value()
    c1 = d1.coefficient(0).constant_value()
    assert c0 == F(-1, 8) and c1 == F(1, 16)
    assert c0 != c1
    report("3c", "no global meromorphic solution for f = t(t^2-1); "
                 "local solutions disagree (%s vs %s)" % (c0, c1))


def _family_coefficients(f):
    spec = family_pack(f)
    frame = spec.frame
    cls = reconstruct_class(spec, 1, 1,
                            [to_normalized_insertion(frame, [0, 1])], 1)
    got = {}
    for dg, coeff in cls.codim_part(1).terms.items():
        if dg.graph.edges:
            got["delta_divisor"] = coeff * 2  # divisor normalization
        elif dg.kappa[0]:
            got["kappa"] = coeff
        else:
            got["psi"] = coeff
    return spec, cls, got


def test_criterion_04a_genus_one_coefficients_as_stated():
    """Literal check of the transcribed coefficient triple; fails by a
    global sign (that orientation contradicts the genus-zero potential and
    the projective-line genus-one value; README, known discrepancies)."""
    t = V("t")
    f = t * (t + 1)
    spec, cls, got = _family_coefficients(f)
    fs = PS.from_poly(f, "t")
    gamma = PS.from_poly(MP.const(F(1, 12)) + t * F(1, 6), "t")
    fdf = fs.derivative() * fs.invert(trunc=6)
    assert (got["psi"] - (gamma + fdf * F(7, 48)) * (-2)).is_zero(), \
        "psi_1 coefficient differs from the quoted -2(gamma + 7 fdot/48f)"
    assert (got["kappa"] - (gamma - fdf * F(5, 48)) * 2).is_zero()
    assert (got["delta_divisor"] - (gamma * 2 + fdf * F(2, 48))).is_zero()
    assert (integrate_strata(cls.codim_part(1)) - gamma).is_zero()
    report("4a", "quoted genus-one coefficient triple")


def test_criterion_04b_genus_one_corrected_orientation():
    t = V("t")
    for f in (t, t * (t + 1)):
        spec, cls, got = _family_coefficients(f)
        fs = PS.from_poly(f, "t")
        gpoly = solve_2d_family(f).gamma_global
        gamma = PS.from_poly(gpoly, "t") if gpoly is not None else PS.zero("t")
        fdf = fs.derivative() * fs.invert(trunc=6)
        assert (got["psi"] - (gamma + fdf * F(7, 48)) * 2).is_zero()
        assert (got["kappa"] + (gamma - fdf * F(5, 48)) * 2).is_zero()
        assert (got["delta_divisor"] + (gamma * 2 + fdf * F(2, 48))).is_zero()
        # integral via int psi = int kappa = (1/12) int delta_0 = 1/24
        total = (got["psi"] + got["kappa"]) * F(1, 24) + \
            got["delta_divisor"] * F(1, 2) * 1
        assert (total - integrate_strata(cls.codim_part(1))).is_zero()
        assert (total + gamma).is_zero()
        # cross-validated against the closed genus-one formula
        assert (genus_one_correlator(spec, [0, 1]) - total).is_zero()
    report("4b", "genus-one triple up to global sign; correlator = -gamma; "
                 "closed formula cross-validated")


def test_criterion_05_residuals_of_every_produced_rmatrix():
    specs = [a2_pack(), ext_pack(1), ext_pack(2),
             family_pack(V("t")), family_pack(V("t") * (V("t") + 1))]
    tilted = idempotent_frame(a2_tilted_expansion(trunc=9))
    specs.append(CohFTSpec(tilted, solve_flatness(tilted, K=2)))
    for spec in specs:
        R = spec.R
        for k in range(1, R.K + 1):
            assert R.symplectic_defect(k).is_zero()
            for a in range(len(R.frame.vars)):
                assert R.flatness_residual(k, a).is_zero()
    report(5, "flatness and symplectic residuals vanish to z^K for %d matrices"
              % len(specs))


def test_criterion_06_psi_tilde_series():
    p0 = psi0_frame(idempotent_frame(a2_tilted_expansion(trunc=8)))
    assert not p0.eta0.is_zero()
    a, c, _ = p0.lemma32_ac()
    r = p0.eta0 * p0.eta1.invert(trunc=5)
    assert (a - (1 + F(3, 8) * r * r * p0.t)).order() >= 2
    assert (c - (-r / 2 - F(5, 16) * r ** 3 * p0.t)).order() >= 2
    report(6, "a and c expansions exact to t^2 on a chart with eta0 != 0")


def test_criterion_07_dilaton_identities():
    for g, n in [(1, 1), (0, 4)]:
        acc = {j: F(0) for j in range(5)}
        for k in range(0, 5):
            if k == 0:
                coeff = F(1)
            else:
                v = StrataVector.single(DecoratedGraph.smooth(
                    g, n + k, leg_psi={n + j: 1 for j in range(1, k + 1)}))
                for _ in range(k):
                    v = forgetful_pushforward(v)
                coeff = F(0)
                for dg, c in v.terms.items():
                    assert dg.codim() == 0
                    coeff += c
                coeff /= _fact(k)
            e = 2 - 2 * g - n - k
            for j in range(k, 5):
                acc[j] += coeff * _binom(e, j - k)
        assert acc[0] == 1 and all(acc[j] == 0 for j in range(1, 5))
    report(7, "strata-level dilaton identity to b^4 at (1,1) and (0,4)")


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


def test_criterion_08_relations_pair_to_zero():
    spec = a2_pack()
    rs = extract_relations(spec, CELLS)
    assert verify_relations(rs) == {}
    assert rs.dim((1, 1, 1)) == 1 and rs.dim((0, 4, 1)) == 2
    # corrupting a coefficient is flagged
    vec = rs.vectors((1, 1, 1))[0]
    bad = vec + StrataVector.single(
        DecoratedGraph.smooth(1, 1, leg_psi={1: 1}), F(1, 3))
    assert verify_vector(bad, 1)
    report(8, "all extracted relations pair to exact zero; corruption flagged")


def test_criterion_09_extension_spans_equal():
    base = closed_span(a2_pack())
    for c in (1, 2):
        other = closed_span(ext_pack(c))
        verdicts = compare_spans(base, other)
        assert set(verdicts) == set(CELLS)
        bad = {cell: v for cell, (v, _) in verdicts.items() if v != "equal"}
        assert not bad, bad
    report(9, "closed spans of A2 and both extensions agree on %d cells"
              % len(CELLS))


def test_closed_a2_ranks_pinned():
    # the closed ranks of the eight cells alone; at (1,2,1), (1,2,2) and
    # (2,0,2) they fall short of the known corank
    closed = closed_span(a2_pack())
    assert {cell: closed.dim(cell) for cell in CELLS} == {
        (0, 4, 1): 7, (0, 5, 1): 11, (0, 5, 2): 126, (1, 1, 1): 2,
        (1, 2, 1): 2, (1, 2, 2): 15, (2, 0, 1): 1, (2, 0, 2): 4}


def test_criterion_10_holomorphic_action_preserves_span():
    import random
    from tautrel.puiseux import SeriesMatrix
    from tautrel.rmatrix import RMatrix
    rng = random.Random(31415)
    spec = a2_pack()
    frame = spec.frame
    cells = [(1, 1, 1), (0, 4, 1)]
    base = close_relations(extract_relations(spec, cells))

    def rand_matrix(symmetric):
        n = frame.dim
        m = [[F(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = F(rng.randint(-3, 3), rng.randint(1, 2))
                if symmetric:
                    m[i][j] = m[j][i] = x
                elif i != j:
                    m[i][j], m[j][i] = x, -x
        return SeriesMatrix([[PS.const(v, frame.param) for v in row] for row in m])

    for trial in range(5):
        a1 = rand_matrix(True)
        a2m = rand_matrix(False)
        a3 = rand_matrix(True)
        ident = SeriesMatrix.identity(frame.dim, frame.param)
        S = [ident, a1, a2m + (a1 * a1).scale(F(1, 2)),
             a3 + (a1 * a2m + a2m * a1).scale(F(1, 2)) + (a1 * a1 * a1).scale(F(1, 6))]
        orders = []
        for k in range(4):
            acc = SeriesMatrix.zero(frame.dim, frame.dim, frame.param)
            for p in range(k + 1):
                acc = acc + S[p] * spec.R[k - p]
            orders.append(acc)
        SR = RMatrix(frame, orders, {})
        SR.check_symplectic()
        span = close_relations(extract_relations(CohFTSpec(frame, SR), cells))
        verdicts = compare_spans(base, span)
        assert all(v[0] == "equal" for v in verdicts.values()), (trial, verdicts)
    report(10, "five random holomorphic symplectic actions preserve the span")


def test_criterion_11_structure_probe():
    for exp, probe, name in [(a2_expansion(trunc=6), None, "A2"),
                             (a3_expansion(trunc=6), [0, 1, 0], "A3"),
                             (a2x_a1_expansion(1, trunc=6), None, "A2xA1")]:
        frame = idempotent_frame(exp, probe=probe)
        rep = local_structure_probe(frame)
        assert rep.m == F(1, 2), name
        assert len(rep.singular) == 2, name
    report(11, "m = 1/2 with exactly two non-extending idempotents on "
               "A2, A3, A2xA1")
