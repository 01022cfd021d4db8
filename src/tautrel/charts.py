"""Ready-made Frobenius charts, each with its ``expansion_point``, and
``expand``, the one way to turn a chart into a ``ChartExpansion``."""

from __future__ import annotations

from fractions import Fraction

from .frobenius import ChartExpansion, FrobeniusChart
from .multipoly import MultiPoly
from .serialize import ParseError, read_expansion_point

V = MultiPoly.var


def expand(chart, trunc, point=None, param=None, cover_degree=None):
    """``chart`` expanded at ``point``, else at its own ``expansion_point``.

    The parameter is ``param``, else the point's, else the last coordinate;
    the cover degree is ``cover_degree``, else the point's, else 1.
    """
    if point is None:
        point = chart.expansion_point or {}
    point_param, point_cover, subs = read_expansion_point(point, chart.coords)
    param = param or point_param or chart.coords[-1]
    variables = set().union(*(p.variables() for p in subs.values()))
    if param not in variables:
        raise ParseError("local parameter %r is not a variable of chart %s "
                         "(variables: %s)" % (param, chart.name,
                                              ", ".join(sorted(variables))))
    cover = point_cover if cover_degree is None else int(cover_degree)
    return ChartExpansion(chart, param, subs, cover_degree=cover, trunc=trunc)


def a2_chart():
    """Versal deformations x^3/3 - t1 x + t0; the 3-spin Frobenius manifold."""
    t0, t1 = V("t0"), V("t1")
    potential = t0 * t0 * t1 / 2 + t1 ** 4 / 24
    return FrobeniusChart(["t0", "t1"], [[0, 1], [1, 0]], potential, 0, name="A2",
                          expansion_point={"param": "t1"})


def a2_expansion(trunc=6):
    return expand(a2_chart(), trunc)


def family_chart(f):
    """Two-dimensional family with (d/dt)^2 = f(t) d/dt0 for a polynomial f."""
    t0 = V("t0")
    F = f.antiderivative("t").antiderivative("t").antiderivative("t")
    potential = t0 * t0 * V("t") / 2 + F
    return FrobeniusChart(["t0", "t"], [[0, 1], [1, 0]], potential, 0,
                          name="family", expansion_point={"param": "t"})


def family_expansion(f, trunc=6):
    """Expansion of the 2d family at t = 0 (series variable t)."""
    return expand(family_chart(f), trunc)


def a2_tilted_chart():
    """A2-like chart with eta(1,1) = 1, so eta_0 != 0 on the t-frame."""
    t0, t1 = V("t0"), V("t1")
    potential = t0 ** 3 / 6 + t0 * t0 * t1 / 2 + t1 ** 4 / 24
    return FrobeniusChart(["t0", "t1"], [[1, 1], [1, 0]], potential, 0,
                          name="A2-tilted", expansion_point={"param": "t1"})


def a2_tilted_expansion(trunc=6):
    return expand(a2_tilted_chart(), trunc)


def a3_chart():
    """Versal deformations x^4/4 + t2 x^2 + t1 x + t0 in flat coordinates.

    Flat coordinates (s0, s1, s2) = (t0 - t2^2/2, t1, t2); the flat fields are
    1, x, x^2 + t2 in the Milnor ring Q[t][x]/(f'(x)).  The expansion point
    is the discriminant branch zeta1 = zeta2 away from the cusp: critical
    points zeta1,2 = -zeta3/2 +- phi/2, (t1, t2) = (-e3, e2/2) in their
    elementary symmetric functions, and phi a double cover of t_D.
    """
    s0, s1, s2 = V("s0"), V("s1"), V("s2")
    potential = (s0 * s0 * s2 / 2 + s0 * s1 * s1 / 2
                 - s1 * s1 * s2 * s2 / 4 + s2 ** 5 / 60)
    point = {"param": "phi", "cover_degree": 2, "subs": {
        "s0": "-1/128*phi^4 + t0 - 9/128*zeta3^4 - 3/64*phi^2*zeta3^2",
        "s1": "-1/4*zeta3^3 + 1/4*phi^2*zeta3",
        "s2": "-1/8*phi^2 - 3/8*zeta3^2"}}
    return FrobeniusChart(["s0", "s1", "s2"], [[0, 0, 1], [0, 1, 0], [1, 0, 0]],
                          potential, 0, name="A3", expansion_point=point)


def a3_expansion(trunc=6):
    return expand(a3_chart(), trunc)


def extend_chart(chart, c):
    """Example-3.1 dimension extension by an idempotent direction of norm 1/c.

    The new unit is the old unit plus the new idempotent; coordinates are
    chosen so the unit stays a single flat field.  The extension keeps the
    chart's expansion point and the parameter the chart is expanded along.
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
    point = dict(chart.expansion_point or {})
    point["param"] = point.get("param") or chart.coords[-1]
    return FrobeniusChart(chart.coords + [wname], metric, potential, unit_idx,
                          name="%s+A1(c=%s)" % (chart.name, c),
                          expansion_point=point)


def a2x_a1_expansion(c=1, trunc=6):
    """Product A2 x A1 expanded along the A2 discriminant t1 = 0."""
    return expand(extend_chart(a2_chart(), c), trunc)
