"""Ready-made Frobenius charts: A2, A3, the 2d family, products, extensions."""

from __future__ import annotations

from fractions import Fraction

from .frobenius import ChartExpansion, FrobeniusChart
from .multipoly import MultiPoly

V = MultiPoly.var


def a2_chart():
    """Versal deformations x^3/3 - t1 x + t0; the 3-spin Frobenius manifold."""
    t0, t1 = V("t0"), V("t1")
    potential = t0 * t0 * t1 / 2 + t1 ** 4 / 24
    return FrobeniusChart(["t0", "t1"], [[0, 1], [1, 0]], potential, 0, name="A2")


def a2_expansion(trunc=6):
    return ChartExpansion(a2_chart(), "t1", {"t0": V("t0"), "t1": V("t1")},
                          trunc=trunc)


def family_chart(f):
    """Two-dimensional family with (d/dt)^2 = f(t) d/dt0 for a polynomial f."""
    t0 = V("t0")
    F = f.antiderivative("t").antiderivative("t").antiderivative("t")
    potential = t0 * t0 * V("t") / 2 + F
    return FrobeniusChart(["t0", "t"], [[0, 1], [1, 0]], potential, 0,
                          name="family")


def family_expansion(f, trunc=6):
    """Expansion of the 2d family at t = 0 (series variable t)."""
    return ChartExpansion(family_chart(f), "t", {"t0": V("t0"), "t": V("t")},
                          trunc=trunc)


def a2_tilted_chart():
    """A2-like chart with eta(1,1) = 1, so eta_0 != 0 on the t-frame."""
    t0, t1 = V("t0"), V("t1")
    potential = t0 ** 3 / 6 + t0 * t0 * t1 / 2 + t1 ** 4 / 24
    return FrobeniusChart(["t0", "t1"], [[1, 1], [1, 0]], potential, 0,
                          name="A2-tilted")


def a2_tilted_expansion(trunc=6):
    return ChartExpansion(a2_tilted_chart(), "t1",
                          {"t0": V("t0"), "t1": V("t1")}, trunc=trunc)


def _a3_subs():
    """Flat coordinates of A3 in (phi, zeta3, t0), phi = zeta1 - zeta2."""
    phi, z3, t0 = V("phi"), V("zeta3"), V("t0")
    zeta1 = -z3 / 2 + phi / 2
    zeta2 = -z3 / 2 - phi / 2
    e2 = zeta1 * zeta2 + zeta1 * z3 + zeta2 * z3
    e3 = zeta1 * zeta2 * z3
    t1 = -e3
    t2 = e2 / 2
    return {"s0": t0 - t2 * t2 / 2, "s1": t1, "s2": t2}


def a3_chart():
    """Versal deformations x^4/4 + t2 x^2 + t1 x + t0 in flat coordinates.

    Flat coordinates (s0, s1, s2) = (t0 - t2^2/2, t1, t2); the flat fields are
    1, x, x^2 + t2 in the Milnor ring Q[t][x]/(f'(x)).  The expansion point
    is that of ``a3_expansion``.
    """
    s0, s1, s2 = V("s0"), V("s1"), V("s2")
    potential = (s0 * s0 * s2 / 2 + s0 * s1 * s1 / 2
                 - s1 * s1 * s2 * s2 / 4 + s2 ** 5 / 60)
    point = {"param": "phi", "cover_degree": 2,
             "subs": {c: str(p) for c, p in _a3_subs().items()}}
    return FrobeniusChart(["s0", "s1", "s2"], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                          potential, 0, name="A3", expansion_point=point)


def a3_expansion(trunc=6):
    """A3 near the discriminant branch zeta1 = zeta2, away from the cusp.

    Coordinates (phi, zeta3, t0) with phi = zeta1 - zeta2 the local parameter;
    phi is a double cover of the transversal coordinate t_D.
    """
    return ChartExpansion(a3_chart(), "phi", _a3_subs(), cover_degree=2,
                          trunc=trunc)


def extend_chart(chart, c):
    """Example-3.1 dimension extension by an idempotent direction of norm 1/c.

    The new unit is the old unit plus the new idempotent; coordinates are
    chosen so the unit stays a single flat field.
    """
    c = Fraction(c)
    if c == 0:
        raise ValueError("degenerate metric: c = 0")
    unit_idx = next(i for i, x in enumerate(chart.unit) if x != 0)
    if chart.unit[unit_idx] != 1 or any(x != 0 for i, x in enumerate(chart.unit)
                                        if i != unit_idx):
        raise ValueError("extension needs a coordinate unit field")
    wname = "w%d" % chart.dim
    n = chart.dim
    metric = [[chart.metric[i][j] for j in range(n)] + [Fraction(0)]
              for i in range(n)]
    metric.append([Fraction(0)] * n + [c])
    metric[unit_idx][unit_idx] += c
    metric[unit_idx][n] = c
    metric[n][unit_idx] = c
    u = V(chart.coords[unit_idx])
    potential = chart.potential + (u + V(wname)) ** 3 * (c / 6)
    return FrobeniusChart(chart.coords + [wname], metric, potential, unit_idx,
                          name="%s+A1(c=%s)" % (chart.name, c))


def a2x_a1_expansion(c=1, trunc=6):
    """Product A2 x A1 expanded along the A2 discriminant t1 = 0."""
    chart = extend_chart(a2_chart(), c)
    subs = {"t0": V("t0"), "t1": V("t1"), chart.coords[2]: V(chart.coords[2])}
    return ChartExpansion(chart, "t1", subs, trunc=trunc)
