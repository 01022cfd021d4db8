import copy
from fractions import Fraction as F

import pytest

from tautrel.charts import (a2_chart, a2_expansion, a2_tilted_expansion,
                            a2x_a1_expansion, a3_chart, a3_expansion, expand,
                            extend_chart, family_expansion)
from tautrel.frobenius import (ChartError, FrobeniusChart, NonSemisimpleError,
                               _shift_poly, idempotent_frame,
                               local_structure_probe, newton_puiseux_roots,
                               psi0_frame, verify_frame)
from tautrel.multipoly import MultiPoly as MP
from tautrel.puiseux import PuiseuxSeries as PS, SeriesMatrix

V = MP.var


def series(poly, param="t1", trunc=None):
    s = PS.from_poly(poly, param)
    return s if trunc is None else s.truncate(trunc)


# -- charts and products ------------------------------------------------------


def test_a2_quantum_product():
    exp = a2_expansion(trunc=6)
    e0 = exp.unit_vector()
    e1 = [PS.const(0, "t1"), PS.const(1, "t1")]
    prod = exp.product(e1, e1)
    assert (prod[0] - PS.unit("t1", 1)).is_zero()
    assert prod[1].is_zero()
    # unit axiom
    for X in (e1, [PS.const(F(2, 3), "t1"), PS.unit("t1", 1)]):
        res = exp.product(X, e0)
        assert all((res[m] - X[m]).is_zero() for m in range(2))


def test_zero_operand_keeps_its_truncation():
    # x_0 is zero only below t1^2: every product with it is unknown from
    # t1^2 + ord on, and dropping x_0 would certify terms that are unknown
    exp = a2_expansion()
    x = [PS.zero("t1", trunc=2), PS.const(1, "t1")]
    y = [PS.unit("t1", -3), PS.const(1, "t1")]
    assert str(exp.pairing(x, y)) == "t1^-3 + O(t1^2)"
    assert str(exp.product(x, y)) == "[O(t1^-1), t1^-3 + O(t1^2)]"
    # p(X) = X^2 + O(t1) X + 3 at X = t1^-1 + Y
    p = [PS.const(3, "t1"), PS.zero("t1", trunc=1), PS.const(1, "t1")]
    assert str(_shift_poly(p, PS.unit("t1", -1))) == (
        "[t1^-2 + O(t1^0), 2*t1^-1 + O(t1^1), 1]")


def test_a3_milnor_ring_product():
    # x * x * x reduces like x^3 mod f'(x) = x^3 + 2 t2 x + t1
    exp = a3_expansion(trunc=6)
    x = [PS.zero("phi"), PS.const(1, "phi"), PS.zero("phi")]
    x2 = exp.product(x, x)
    x3 = exp.product(x2, x)
    # oracle: x^3 = -2 t2 x - t1, and x^2 = e2' - t2 in the flat basis
    t2 = exp.poly_series(V("s2"))
    t1 = exp.poly_series(V("s1"))
    assert (x3[1] + 2 * t2).is_zero()
    assert x3[2].is_zero()
    assert (x3[0] + t1).is_zero()
    # x^2 in flat coordinates is e2-component 1, e0-component -t2
    assert (x2[2] - 1).is_zero()
    assert (x2[0] + t2).is_zero()


def test_wdvv_checked_on_construction():
    with pytest.raises(ChartError):
        FrobeniusChart(["t0", "t1"], [[0, 1], [1, 0]],
                       V("t0") ** 2 * V("t1") / 2 + V("t0") * V("t1") ** 3,
                       0)


def test_singular_metric_raises():
    # the A2 potential with a rank-one metric
    with pytest.raises(ChartError, match="metric is singular"):
        FrobeniusChart(["t0", "t1"], [[1, 2], [2, 4]],
                       V("t0") ** 2 * V("t1") / 2 + V("t1") ** 4 / 72, 0)


def test_discriminants():
    assert a2_chart().discriminant_poly() == 4 * V("t1")
    # A3: vanishing locus of -32 t2^3 - 27 t1^2 up to a constant factor
    disc = a3_chart().discriminant_poly()
    target = -32 * V("s2") ** 3 - 27 * V("s1") ** 2
    ratio = None
    for mono, c in disc.terms.items():
        assert mono in target.terms
        r = c / target.terms[mono]
        assert ratio is None or r == ratio
        ratio = r
    assert ratio is not None
    # constant invertible product: discriminant is a nonvanishing constant
    tqft = FrobeniusChart(["a", "b"], [[1, 0], [0, 1]],
                          V("a") ** 3 / 6 + V("a") * V("b") ** 2 / 2, 0)
    assert tqft.discriminant_poly() == MP.const(4)


# -- Newton-Puiseux -----------------------------------------------------------


def test_newton_puiseux_sqrt_t():
    one = PS.const(1, "t1")
    roots = newton_puiseux_roots([PS.from_poly(-V("t1"), "t1"), PS.zero("t1"), one],
                                 "t1", F(4))
    assert sorted(str(r) for r in roots) == sorted(
        [str(PS.unit("t1", F(1, 2)).truncate(4)),
         str((-PS.unit("t1", F(1, 2))).truncate(4))])


def test_newton_puiseux_fourth_roots():
    # X^4 - t: the four branches i^k t^(1/4), principal root first
    zero = PS.zero("t")
    roots = newton_puiseux_roots([PS.from_poly(-V("t"), "t"), zero, zero, zero,
                                  PS.const(1, "t")], "t", F(4))
    assert [str(r) for r in roots] == [
        "t^(1/4) + O(t^4)", "-1*t^(1/4) + O(t^4)", "@i*t^(1/4) + O(t^4)",
        "-1*@i*t^(1/4) + O(t^4)"]


def test_newton_puiseux_binomial_oracle():
    # X^2 - (1 + t): roots are the binomial series of +-sqrt(1+t)
    one = PS.const(1, "t")
    p = [-(one + PS.unit("t", 1)), PS.zero("t"), one]
    roots = newton_puiseux_roots(p, "t", F(4))
    from test_puiseux import binomial_sqrt
    target = binomial_sqrt("t", MP.const(1), 4)
    assert any((r - target).is_zero() for r in roots)
    assert any((r + target).is_zero() for r in roots)


def test_newton_puiseux_constant_roots():
    one = PS.const(1, "t")
    p = [PS.const(2, "t"), PS.const(-3, "t"), one]  # (X-1)(X-2)
    roots = newton_puiseux_roots(p, "t", F(3))
    assert len(roots) == 2
    assert any((r - 1).is_zero() for r in roots)
    assert any((r - 2).is_zero() for r in roots)


def test_newton_puiseux_non_semisimple():
    one = PS.const(1, "t")
    zero = PS.zero("t")
    # (X - t)^2, X^2 and X (X - t)^2 are not squarefree; the last two reach
    # their repeated roots through the zero constant coefficient
    for p in ([PS.unit("t", 2), PS.unit("t", 1, -2), one],
              [zero, zero, one],
              [zero, PS.unit("t", 2), PS.unit("t", 1, -2), one]):
        with pytest.raises(NonSemisimpleError, match="coincident roots"):
            newton_puiseux_roots(p, "t", F(4))


def test_newton_puiseux_negative_order():
    # X^2 - t^-2 and X^2 - t^-2 (1 + t): roots +-t^-1 and +-t^-1 sqrt(1 + t)
    from test_puiseux import binomial_sqrt
    one = PS.const(1, "t")
    inv_t = PS.unit("t", -1)
    for c0, root in [(-PS.unit("t", -2), inv_t),
                     (-PS.unit("t", -2) - inv_t,
                      inv_t * binomial_sqrt("t", MP.const(1), 5))]:
        roots = newton_puiseux_roots([c0, PS.zero("t"), one], "t", F(4))
        assert len(roots) == 2
        assert all(r.trunc == 4 and (r * r + c0).is_zero() for r in roots)
        assert any((r - root).is_zero() for r in roots)
        assert any((r + root).is_zero() for r in roots)


# -- idempotent frames --------------------------------------------------------


def test_a2_frame_golden_values():
    fr = idempotent_frame(a2_expansion(trunc=6))
    half = PS.const(F(1, 2), "t1")
    pm = PS.unit("t1", F(-1, 2), F(1, 2))
    got = {}
    for i in range(2):
        sign = 1 if (fr.eps[i][1] - pm).is_zero() else -1
        got[sign] = i
        assert (fr.eps[i][0] - half).is_zero()
        assert (fr.eps[i][1] - pm * sign).is_zero()
    u_plus = fr.u[got[1]]
    u_minus = fr.u[got[-1]]
    t0 = PS.const(V("t0"), "t1")
    assert (u_plus - (t0 + PS.unit("t1", F(3, 2), F(2, 3)))).is_zero()
    assert (u_minus - (t0 - PS.unit("t1", F(3, 2), F(2, 3)))).is_zero()
    # norms: Delta_{+-} = +-2 sqrt(t1)
    assert (fr.delta[got[1]] - PS.unit("t1", F(1, 2), 2)).is_zero()
    assert (fr.delta[got[-1]] + PS.unit("t1", F(1, 2), 2)).is_zero()


def test_a2_flat_field_recovery():
    # d/dt1 = (3/4 (u_+ - u_-))^(1/3) (eps_+ - eps_-)
    from tautrel.frobenius import series_rational_power
    fr = idempotent_frame(a2_expansion(trunc=6))
    plus = 0 if fr.u[0].coefficient(F(3, 2)) == MP.const(F(2, 3)) else 1
    minus = 1 - plus
    diff = fr.u[plus] - fr.u[minus]
    w = series_rational_power(diff * F(3, 4), F(1, 3), trunc=4)
    for mu, want in [(0, PS.zero("t1")), (1, PS.const(1, "t1"))]:
        got = w * (fr.eps[plus][mu] - fr.eps[minus][mu])
        assert (got - want).is_zero()


def test_a3_frame_golden_values():
    exp = a3_expansion(trunc=6)
    fr = idempotent_frame(exp, probe=[0, 1, 0])
    z3, t0, phi = V("zeta3"), V("t0"), V("phi")
    # roots: zeta_1 = -z3/2 + phi/2, zeta_2 = -z3/2 - phi/2, zeta_3 = z3
    zeta1 = exp.poly_series(MP.const(0)) + PS.from_poly(-z3 / 2 + phi / 2, "phi")
    zeta3 = PS.from_poly(z3, "phi")
    assert any((r - zeta1).is_zero() for r in fr.roots)
    assert any((r - zeta3).is_zero() for r in fr.roots)
    # u_1 - u_2 = 1/4 zeta3 phi^3 and u_3 = t0 - 3/8 z3^4 + 1/8 z3^2 phi^2
    u3 = PS.from_poly(t0 - F(3, 8) * z3 ** 4 + F(1, 8) * z3 ** 2 * phi ** 2, "phi")
    assert any((u - u3).is_zero() for u in fr.u)
    diffs = [fr.u[i] - fr.u[j] for i in range(3) for j in range(3) if i != j]
    target = PS.from_poly(F(1, 4) * z3 * phi ** 3, "phi")
    assert any((d - target).is_zero() for d in diffs)
    # the three idempotent formulas (flat basis: 1, x, x^2 + s2)
    t2 = exp.poly_series(V("s2"))
    def closed_form_idempotent(beta, gamma, denom):
        dinv = PS.from_poly(denom, "phi").invert(trunc=4)
        return [(PS.from_poly(gamma, "phi") - t2) * dinv,
                PS.from_poly(beta, "phi") * dinv, dinv]
    formulas = [
        closed_form_idempotent(-z3 / 2 + phi / 2, -z3 ** 2 / 2 - z3 * phi / 2,
                         F(-3, 2) * z3 * phi + phi ** 2 / 2),
        closed_form_idempotent(-z3 / 2 - phi / 2, -z3 ** 2 / 2 + z3 * phi / 2,
                         F(3, 2) * z3 * phi + phi ** 2 / 2),
        closed_form_idempotent(z3, z3 ** 2 / 4 - phi ** 2 / 4,
                         F(9, 4) * z3 ** 2 - phi ** 2 / 4),
    ]
    for formula in formulas:
        assert any(all((fr.eps[i][mu] - formula[mu]).is_zero() for mu in range(3))
                   for i in range(3))


def test_frame_invariants_randomized_charts():
    # verify_frame runs in the constructor; exercise several charts
    for exp in (a2_expansion(trunc=5), a2_tilted_expansion(trunc=5),
                family_expansion(V("t") * (V("t") + 1), trunc=5),
                a2x_a1_expansion(2, trunc=5)):
        fr = idempotent_frame(exp)
        n = fr.dim
        # commuting canonical fields: mixed second derivatives of u agree
        for i in range(n):
            for j in range(n):
                duij = fr.expansion.derivative_along(fr.u[i], fr.eps[j])
                want = 1 if i == j else 0
                assert (duij - want).is_zero()


def test_local_structure_probe_m_half():
    for exp, probe in [(a2_expansion(trunc=6), None),
                       (a3_expansion(trunc=6), [0, 1, 0]),
                       (a2x_a1_expansion(1, trunc=6), None)]:
        fr = idempotent_frame(exp, probe=probe)
        rep = local_structure_probe(fr)
        assert rep.m == F(1, 2)
        assert len(rep.singular) == 2
        assert rep.u_diff_order == F(3, 2)


def test_a2xa1_third_idempotent_holomorphic():
    fr = idempotent_frame(a2x_a1_expansion(1, trunc=6))
    rep = local_structure_probe(fr)
    others = [i for i in range(3) if i not in rep.singular]
    assert len(others) == 1
    order = min(c.order_or_trunc() for c in fr.eps[others[0]])
    assert order >= 0


def test_one_dimensional_trivial_chart():
    chart = FrobeniusChart(["w"], [[F(2)]], V("w") ** 3 / 3, 0)
    exp_ = __import__("tautrel.frobenius", fromlist=["ChartExpansion"])
    from tautrel.frobenius import ChartExpansion
    exp = ChartExpansion(chart, "w", {"w": V("w")}, trunc=4)
    fr = idempotent_frame(exp)
    assert (fr.eps[0][0] - 1).is_zero()
    assert (fr.delta[0] - F(1, 2)).is_zero()  # Delta = eta(1,1)^{-1}


def test_psi0_frame_identities():
    for exp in (a2_expansion(trunc=6), a2_tilted_expansion(trunc=6)):
        fr = idempotent_frame(exp)
        p0 = psi0_frame(fr)
        # eta(dt, dt) = t eta0 is asserted inside; check Psi-tilde holomorphy
        for row in p0.psi_tilde.entries:
            for e in row:
                assert e.order() is None or e.order() >= 0


def test_a2_psi0_values():
    p0 = psi0_frame(idempotent_frame(a2_expansion(trunc=6)))
    assert p0.eta0.is_zero()
    assert (p0.eta1 - 1).is_zero()
    assert (p0.t - PS.unit("t1", 1)).is_zero()


def test_lemma32_expansions_with_nonzero_eta0():
    p0 = psi0_frame(idempotent_frame(a2_tilted_expansion(trunc=6)))
    assert not p0.eta0.is_zero()
    a, c, _ = p0.lemma32_ac()
    r = p0.eta0 * p0.eta1.invert(trunc=4)
    a_ref = 1 + F(3, 8) * r * r * p0.t
    c_ref = -r / 2 - F(5, 16) * r * r * r * p0.t
    assert (a - a_ref).order() >= 2
    assert (c - c_ref).order() >= 2


def test_extend_chart_block_structure():
    chart = extend_chart(a2_chart(), 2)
    assert chart.dim == 3
    # discriminant factors as c' * (old disc) * unit
    disc = chart.discriminant_poly()
    old = a2_chart().discriminant_poly()
    ratio_terms = {}
    for mono, c in disc.terms.items():
        assert len(mono) <= 1
    # at w = 0 (and any t0) the ratio to 4 t1 is a nonzero constant
    val = disc.substitute({"w2": MP.const(0), "t0": MP.const(0)})
    old_val = old
    assert len(val.terms) == 1
    ((mono, coeff),) = val.terms.items()
    assert mono == (("t1", F(1)),)
    assert coeff != 0


def test_extended_a3_is_expanded_at_the_a3_point():
    # the A1 direction leaves the discriminant branch of a3 as it is
    exp = expand(extend_chart(a3_chart(), 1), 6)
    assert (exp.param, exp.cover_degree) == ("phi", 2)
    assert local_structure_probe(idempotent_frame(exp)).m == F(1, 2)


def test_newton_puiseux_product_reproduces_polynomial():
    # post-condition: prod (X - root_i) equals the input to truncation
    import random
    rng = random.Random(5)
    one = PS.const(1, "t")
    for _ in range(20):
        # monic quadratic/cubic with small polynomial coefficients
        deg = rng.choice([2, 3])
        coeffs = []
        for k in range(deg):
            terms = {}
            for e in range(0, 3):
                c = rng.randint(-2, 2)
                if c:
                    terms[e] = MP.const(c)
            coeffs.append(PS("t", terms, 1))
        coeffs.append(one)
        try:
            roots = newton_puiseux_roots(coeffs, "t", F(4))
        except NonSemisimpleError:
            continue
        # multiply back
        prod = [PS.const(1, "t")]
        for r in roots:
            new = [PS.zero("t") for _ in range(len(prod) + 1)]
            for i, c in enumerate(prod):
                new[i + 1] = new[i + 1] + c
                new[i] = new[i] - c * r
            prod = new
        for i, c in enumerate(coeffs):
            assert (prod[i] - c).truncate(3).is_zero(), i


def _corrupted_frames():
    """Copies of a valid A2 x A1 frame, each breaking one invariant."""
    frame = idempotent_frame(a2x_a1_expansion(trunc=6))
    e0, e1, e2 = frame.eps
    zero = PS.zero(frame.param)

    def with_eps(eps):
        bad = copy.copy(frame)
        bad.eps = eps
        return bad

    bumped = [e0[0] + 1] + e0[1:]
    idem = with_eps([bumped, e1, e2])
    ortho = with_eps([e0, e0, e2])          # idempotent, not orthogonal
    unit = with_eps([e0, e1, [zero] * 3])   # orthogonal, sums to 1 - eps_2
    dual = copy.copy(frame)
    rows = [list(row) for row in frame.einv.entries]
    rows[0][0] = rows[0][0] + 1
    dual.einv = SeriesMatrix(rows)
    psi = copy.copy(frame)
    rows = [list(row) for row in frame.psi.entries]
    rows[0][0] = rows[0][0] * 2
    psi.psi = SeriesMatrix(rows)
    psi._psi_inv = None
    return [(idem, "idempotency fails"), (ortho, "orthogonality fails"),
            (unit, "do not sum to the unit"),
            (dual, "dual-frame identity fails"),
            (psi, r"Psi\^T eta Psi != Id")]


def test_verify_frame_rejects_each_broken_invariant():
    for bad, message in _corrupted_frames():
        with pytest.raises(ChartError, match=message):
            verify_frame(bad)
