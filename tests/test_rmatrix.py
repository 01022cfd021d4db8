import random
from fractions import Fraction as F

import pytest

from tautrel.charts import (a2_expansion, a2_tilted_expansion,
                            a2x_a1_expansion, family_expansion)
from tautrel.frobenius import (ChartError, NonSemisimpleError, idempotent_frame,
                               psi0_frame)
from tautrel.multipoly import MultiPoly as MP
from tautrel.puiseux import PuiseuxSeries as PS, SeriesMatrix
from tautrel.rmatrix import (RMatrix, gamma_ode, ode_series_solution,
                             quotient_holomorphy, rational_solution,
                             solve_2d_family, solve_flatness)

V = MP.var


def a2_rmatrix(K=3, trunc=10, constants=None):
    frame = idempotent_frame(a2_expansion(trunc=trunc))
    return solve_flatness(frame, K, constants)


def test_flatness_and_symplectic_residuals():
    # the constructor runs both checks; also exercise them explicitly
    R = a2_rmatrix(K=3)
    for k in range(1, 4):
        assert R.symplectic_defect(k).is_zero()
        for a in range(len(R.frame.vars)):
            assert R.flatness_residual(k, a).is_zero()



def test_flatness_solve_needs_an_inverting_direction():
    """An off-diagonal entry is solved along a chart variable in which
    du_j - du_i inverts; with none, the chart is not semisimple."""
    frame = idempotent_frame(a2_expansion(trunc=10))
    frame.du_chart = [frame.du_chart[0], frame.du_chart[0]]
    with pytest.raises(NonSemisimpleError, match="du_1 - du_0 vanishes"):
        solve_flatness(frame, 2)

def test_a2_flat_entries():
    # for f(t) = t: b - fc - fdot/(4f) = 0 with a = d = 0
    R = a2_rmatrix(K=2)
    Rf = R.to_flat()
    b, c = Rf[1].entries[0][1], Rf[1].entries[1][0]
    a, d = Rf[1].entries[0][0], Rf[1].entries[1][1]
    f = PS.unit("t1", 1)
    assert (b - f * c - f.derivative() * f.invert() * F(1, 4)).is_zero()
    assert a.is_zero() and d.is_zero()
    assert (b - PS.unit("t1", -1, F(7, 48))).is_zero()
    assert (c - PS.unit("t1", -2, F(-5, 48))).is_zero()


def test_odd_constant_preserves_symplectic_even_breaks():
    R0 = a2_rmatrix(K=3)
    # shifting an odd-order diagonal constant keeps the symplectic identity
    R1 = a2_rmatrix(K=3, constants={(0, 1): F(1, 3), (1, 3): F(2)})
    for k in range(1, 4):
        assert R1.symplectic_defect(k).is_zero()
    # perturbing an even-order diagonal entry breaks it
    orders = [m for m in R0.orders]
    bumped = [[e for e in row] for row in orders[2].entries]
    bumped[0][0] = bumped[0][0] + 1
    orders[2] = SeriesMatrix(bumped)
    R2 = RMatrix(R0.frame, orders, R0.constants)
    assert not R2.symplectic_defect(2).is_zero()


def test_gamma_ode_solutions():
    t = V("t")
    diag = solve_2d_family(t * (t + 1))
    assert diag.gamma_global == MP.const(F(1, 12)) + t * F(1, 6)
    diag_t = solve_2d_family(t)
    assert diag_t.gamma_global == MP()
    # c-equation check: gamma = 0 solves 2 gdot - gdot... identically for f=t
    a, b, c = gamma_ode(t)
    assert (a * MP() + b * MP() + c).is_zero()
    # a constant f has b = -f' = 0: gamma = 0 and no roots to expand at
    diag_c = solve_2d_family(MP.const(3))
    assert diag_c.gamma_global == MP() and list(diag_c.gamma_series) == [1]
    # f = 0 is nowhere semisimple
    with pytest.raises(ValueError, match="no semisimple point"):
        solve_2d_family(MP())


def test_rational_solution_recovers_polynomials():
    # with c made from a chosen polynomial y, the solve gives y back; the
    # homogeneous solution f^(1/2) of each family equation is no polynomial
    t = V("t")
    for f in (t, t * (t + 1), t * t + 3 * t, t ** 3 - t, 2 * t ** 4 + t):
        a, b, _ = gamma_ode(f)
        for y in (MP(), MP.const(F(2, 3)), t * F(-1, 5) + 1,
                  t ** 3 * 4 - t * t):
            c = -(a * y.derivative("t") + b * y)
            assert rational_solution(a, b, c) == y, (f, y)


def test_ode_solve_edge_cases():
    t = V("t")
    # at a simple root of a the t^1 equation reads 0 * y_1 = -1
    with pytest.raises(ChartError, match="resonance"):
        ode_series_solution(t, MP.const(-1), t, "t", 0, 4)
    with pytest.raises(ChartError, match="multiple root"):
        ode_series_solution(t * t, t, MP.const(1), "t", 0, 4)
    # f = t^2 (t - 1) has a double root at 0: no local series there
    diag = solve_2d_family(t * t * (t - 1))
    assert diag.gamma_series[F(0)] is None
    assert diag.gamma_series[F(1)] is not None
    # the homogeneous equation has the polynomial solutions (t + 4/3)^2: the
    # solve pivots on the low powers first and keeps the constant solution
    a = MP.const(-2) - t * F(3, 2)
    assert rational_solution(a, MP.const(3), MP.const(1)) == MP.const(F(-1, 3))


def _recurrence_series(a, b, c, var, center, n_terms):
    """Reference for ode_series_solution: the order-by-order recurrence.

    At an ordinary point the t^j equation gives y_{j+1} (y_0 = 0); at a
    simple root of a it gives y_j through the coefficient a_1 j + b_0, and
    a zero coefficient with a nonzero right side is a resonance.
    """
    center = F(center)
    if center:
        shift = V(var) + MP.const(center)
        a, b, c = (poly.substitute({var: shift}) for poly in (a, b, c))
    a, b, c = ({k: v.constant_value()
                for k, v in PS.from_poly(poly, var).coeffs.items()}
               for poly in (a, b, c))
    deg = max(max(poly, default=0) for poly in (a, b, c))
    a0, a1, b0 = a.get(0, 0), a.get(1, 0), b.get(0, 0)
    y = {}

    def equation_value(j):
        val = c.get(j, F(0))
        for m in range(deg + 1):
            if j - m + 1 in y:
                val += a.get(m, 0) * (j - m + 1) * y[j - m + 1]
            if j - m in y:
                val += b.get(m, 0) * y[j - m]
        return val

    if a0 != 0:
        y[0] = F(0)
        for j in range(n_terms + 1):
            y[j + 1] = -equation_value(j) / (a0 * (j + 1))
    elif a1 != 0 or b0 != 0:
        for j in range(n_terms + 1):
            piv, val = a1 * j + b0, equation_value(j)
            if piv == 0:
                if val != 0:
                    raise ChartError("resonance at order %d" % j)
                y[j] = F(0)
            else:
                y[j] = -val / piv
    else:
        raise ChartError("center is a multiple root of the leading coefficient")
    coeffs = {k: MP.const(v) for k, v in y.items() if k <= n_terms and v != 0}
    return PS(var, coeffs, 1, F(n_terms + 1))


def _random_ode(rng):
    """(a, b, c, center, n_terms) of a random first-order ODE: half of the
    centers are roots of a, some multiple, some with b made resonant."""
    t = V("t")
    center = rng.choice([F(0), F(1), F(-1), F(1, 2)])

    def poly(deg):
        return MP({(("t", i),): F(rng.randint(-4, 4), rng.randint(1, 3))
                   for i in range(deg + 1)})

    def at_center(p):
        return p.substitute({"t": MP.const(center)}).constant_value()

    n_terms = rng.randint(0, 6)
    a, b, c = poly(rng.randint(0, 3)), poly(rng.randint(0, 2)), poly(rng.randint(0, 3))
    kind = rng.random()
    if kind < 0.45:
        q = a
        a = (t - center) * q
        if rng.random() < 0.4:
            # a_1 k + b_0 = 0 at the order k
            k = rng.randint(0, n_terms + 1)
            b = b - at_center(b) - k * at_center(q)
    elif kind < 0.55:
        a = (t - center) ** 2 * a
    return a, b, c, center, n_terms


def test_ode_solve_matches_recurrence():
    # the one exact solve agrees with the order-by-order recurrence, in
    # value and truncation, or raises what it raises
    rng = random.Random(20151)
    outcomes = set()
    for _ in range(1000):
        a, b, c, center, n_terms = _random_ode(rng)
        try:
            want = _recurrence_series(a, b, c, "t", center, n_terms)
        except ChartError as exc:
            with pytest.raises(ChartError):
                ode_series_solution(a, b, c, "t", center, n_terms)
            outcomes.add(str(exc).split(" at ")[0])
            continue
        got = ode_series_solution(a, b, c, "t", center, n_terms)
        assert (str(got), got.trunc) == (str(want), want.trunc), (a, b, c, center)
        outcomes.add("simple root" if a.substitute(
            {"t": MP.const(center)}).is_zero() else "ordinary")
    assert outcomes == {"ordinary", "simple root", "resonance",
                        "center is a multiple root of the leading coefficient"}


def test_no_meromorphic_solution_for_cubic():
    t = V("t")
    diag = solve_2d_family(t * (t * t - 1))
    assert diag.gamma_global is None
    assert "no global meromorphic solution" in diag.certificate
    # unique local solutions at the three roots exist
    for center in (0, 1, -1):
        assert diag.gamma_series[F(center)] is not None


def test_honest_delta_series_in_u():
    """The delta-substitution chain for f = t(t^2-1), derived symbolically.

    gamma = f*delta + t/8 turns the gamma equation into
    4u(u-1) delta' + (3u-1) delta - 1/8 = 0 in u = t^2; the u=0 and u=1
    power-series solutions disagree, certifying the obstruction.
    """
    t = V("t")
    f = t * (t * t - 1)
    a, b, c = gamma_ode(f)
    # substitute gamma = f*delta + t/8 with delta, delta' formal symbols:
    # a*(f' d + f d' + 1/8) + b*(f d + t/8) + c
    dsym, dpsym = V("__delta"), V("__deltap")
    fd = f.derivative("t")
    resid = a * (fd * dsym + f * dpsym + MP.const(F(1, 8))) \
        + b * (f * dsym + t * F(1, 8)) + c
    # collect the coefficients of delta', delta, 1
    coeff_dp = MP()
    coeff_d = MP()
    coeff_1 = MP()
    for mono, cf in resid.terms.items():
        syms = dict(mono)
        rest = tuple((s, e) for s, e in mono if not s.startswith("__"))
        term = MP.monomial(cf, rest)
        if "__deltap" in syms:
            coeff_dp = coeff_dp + term
        elif "__delta" in syms:
            coeff_d = coeff_d + term
        else:
            coeff_1 = coeff_1 + term
    # the t-equation: coeff_dp * d' + coeff_d * d + coeff_1 = 0; all three
    # coefficients are t times polynomials in u = t^2 after clearing
    # 2 f delta': coeff_dp = 2 f^2 = 2t^2 (u-1)^2 * u ... verify evenness
    # and reduce to u: t d/dt = 2 u d/du
    # coeff_dp * d'_t = coeff_dp / t * (t d'_t) -> (coeff_dp / t) * 2u d'_u / ...
    # Instead check the final u-form directly by resubstitution:
    u = V("t")  # reuse the symbol as u
    au = 4 * u * (u - 1)
    bu = 3 * u - 1
    cu = MP.const(F(-1, 8))
    d0 = ode_series_solution(au, bu, cu, "t", 0, 11)
    d1 = ode_series_solution(au, bu, cu, "t", 1, 11)
    assert d0.coefficient(0).constant_value() == F(-1, 8)
    assert d1.coefficient(0).constant_value() == F(1, 16)
    # ratio recursions delta_i = (4i-1)/(4i+1) delta_{i-1} at u = 0
    for i in range(1, 10):
        assert (d0.coefficient(i).constant_value() * (4 * i + 1) ==
                d0.coefficient(i - 1).constant_value() * (4 * i - 1))
    # the two unique local meromorphic solutions disagree
    assert d0.coefficient(0) != d1.coefficient(0)
    # and gamma = f*delta + t/8 with delta(u=t^2) solves the gamma equation:
    # check via the local gamma series at t=0 against d0
    gamma0 = solve_2d_family(f).gamma_series[F(0)]
    fdseries = PS.from_poly(f, "t")
    delta_t = (gamma0 - PS.unit("t", 1, F(1, 8))) * fdseries.invert(trunc=8)
    for i in range(0, 4):
        assert delta_t.coefficient(2 * i) == d0.coefficient(i)
        assert delta_t.coefficient(2 * i + 1).is_zero()
    # no rational solution of the u-equation either
    assert rational_solution(au, bu, cu) is None


def test_matrix_solver_agrees_with_family_gamma():
    # solver c-entry equals gamma/f - 5 fdot / 48 f^2 for the meromorphic gamma
    t = V("t")
    for fpoly in (t, t * (t + 1)):
        exp = family_expansion(fpoly, trunc=9)
        frame = idempotent_frame(exp)
        R = solve_flatness(frame, K=2)
        Rf = R.to_flat()
        fs = PS.from_poly(fpoly, "t")
        gamma_poly = solve_2d_family(fpoly).gamma_global
        gamma = PS.from_poly(gamma_poly, "t") if gamma_poly is not None else PS.zero("t")
        finv2 = (fs * fs).invert(trunc=6)
        c_want = gamma * fs.invert(trunc=6) - fs.derivative() * finv2 * F(5, 48)
        b_want = fs * c_want + fs.derivative() * fs.invert(trunc=6) * F(1, 4)
        assert (Rf[1].entries[1][0] - c_want).is_zero()
        assert (Rf[1].entries[0][1] - b_want).is_zero()


def test_psi_tilde_connection_block_structure():
    # first block of PsiTilde^{-1} d PsiTilde is diag(x, -x), rest antisymmetric
    for exp in (a2_tilted_expansion(trunc=7), a2x_a1_expansion(2, trunc=7)):
        frame = idempotent_frame(exp)
        p0 = psi0_frame(frame)
        pt = p0.psi_tilde
        trunc = F(3)
        w = pt.inverse(trunc=trunc) * pt.map(lambda e: e.derivative())
        n = frame.dim
        assert (w.entries[0][0] + w.entries[1][1]).truncate(trunc - 1).is_zero()
        assert w.entries[0][1].truncate(trunc - 1).is_zero()
        assert w.entries[1][0].truncate(trunc - 1).is_zero()
        for i in range(2, n):
            for j in range(2, n):
                s = w.entries[i][j] + w.entries[j][i]
                assert s.truncate(trunc - 1).is_zero()


def test_quotient_holomorphy_self_and_subblock():
    frame_a2 = idempotent_frame(a2_expansion(trunc=10))
    R_a2 = solve_flatness(frame_a2, K=2)
    p_a2 = psi0_frame(frame_a2)
    # R against itself
    rep = quotient_holomorphy(p_a2, R_a2, p_a2, R_a2)
    assert rep.holomorphic() and rep.residual_ok
    for k in range(1, 3):
        assert rep.orders[k].is_zero()
    # the 2x2 singular block of the product chart equals the A2 matrix
    exp3 = a2x_a1_expansion(1, trunc=10)
    frame3 = idempotent_frame(exp3)
    R3 = solve_flatness(frame3, K=2)
    p3 = psi0_frame(frame3)
    # identify idempotents of the product with the A2 ones via u-series
    order3 = p3.order
    block_orders = []
    for k in range(3):
        m = p3.align(R3[k])
        block_orders.append(SeriesMatrix([[m.entries[i][j] for j in range(2)]
                                          for i in range(2)]))
    # align the A2 frame ordering with the product's singular ordering
    perm = []
    for idx3 in order3[:2]:
        u3 = frame3.u[idx3]
        match = next(i for i in range(2)
                     if (frame_a2.u[i] - _strip_w(u3)).is_zero())
        perm.append(match)
    aligned = [SeriesMatrix([[R_a2[k].entries[perm[i]][perm[j]]
                              for j in range(2)] for i in range(2)])
               for k in range(3)]
    for k in range(3):
        assert (block_orders[k] - aligned[k]).is_zero()


def _strip_w(series):
    # drop terms containing the product-chart symbols w2
    from tautrel.puiseux import PuiseuxSeries
    coeffs = {}
    for key, poly in series.coeffs.items():
        kept = {m: c for m, c in poly.terms.items()
                if not any(s.startswith("w") for s, _ in m)}
        from tautrel.multipoly import MultiPoly
        p = MultiPoly(kept)
        if not p.is_zero():
            coeffs[key] = p
    return PuiseuxSeries(series.param, coeffs, series.ram, series.trunc)


def test_unused_constant_is_rejected():
    # only odd z-orders up to K at an idempotent index are free constants
    frame = idempotent_frame(a2_expansion(trunc=8))
    for key in [(0, 2), (0, 5), (2, 1), (-1, 1), (0, 0)]:
        with pytest.raises(ValueError, match="integration constant"):
            solve_flatness(frame, K=3, constants={key: F(5)})
    R = solve_flatness(frame, K=3, constants={(1, 3): F(5)})
    assert R.constants == {(1, 3): F(5)}


def test_quotient_flags_flipped_odd_constant():
    frame = idempotent_frame(a2_expansion(trunc=10))
    R1 = solve_flatness(frame, K=2)
    R2 = solve_flatness(frame, K=2, constants={(0, 1): F(1)})
    p0 = psi0_frame(frame)
    rep = quotient_holomorphy(p0, R1, p0, R2)
    assert rep.residual_ok
    assert not rep.holomorphic()
    orders = [o for row in rep.min_orders[1] for o in row if o is not None]
    assert min(orders) == F(-1, 2)


def test_non_semisimple_chart_error():
    # a chart that is nowhere semisimple: f = 0 (nilpotent product)
    from tautrel.frobenius import ChartExpansion, FrobeniusChart
    chart = FrobeniusChart(["t0", "t"], [[0, 1], [1, 0]],
                           V("t0") ** 2 * V("t") / 2, 0)
    exp = ChartExpansion(chart, "t", {"t0": V("t0"), "t": V("t")}, trunc=5)
    # each of the 15 nonzero vectors in [0, 3]^2 is tried once
    with pytest.raises(NonSemisimpleError, match="tried 15 candidates"):
        idempotent_frame(exp)
