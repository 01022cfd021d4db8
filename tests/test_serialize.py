import json
import re
from fractions import Fraction as F

import pytest

from tautrel.charts import a2_chart, a3_chart, expand, extend_chart
from tautrel.graphs import DecoratedGraph, StableGraph, StrataVector
from tautrel.multipoly import MultiPoly as MP
from tautrel.serialize import (ParseError, chart_from_json, chart_to_json,
                               dump_chart, graph_from_json, graph_to_json,
                               load_chart, parse_poly,
                               rational_vector_from_json, vector_to_json)


def test_parse_poly_basic():
    p = parse_poly("1/2*t0^2*t1 + 1/24*t1^4")
    t0, t1 = MP.var("t0"), MP.var("t1")
    assert p == t0 * t0 * t1 / 2 + t1 ** 4 / 24
    assert parse_poly("t*(t+1)") == MP.var("t") * (MP.var("t") + 1)
    assert parse_poly("-3*x + 2") == MP.const(2) - 3 * MP.var("x")
    assert parse_poly("x^(3/2)") == MP.var("x", F(3, 2))
    assert parse_poly("t^-1") == MP.var("t", -1)


def test_parse_poly_roundtrip():
    for chart in (a2_chart(), a3_chart(), extend_chart(a2_chart(), 2)):
        text = str(chart.potential)
        assert parse_poly(text) == chart.potential


def test_parse_poly_errors():
    with pytest.raises(ParseError):
        parse_poly("t +")
    with pytest.raises(ParseError):
        parse_poly("(t")
    # arithmetic that fails while parsing is a parse error naming the text
    for text in ("1/0", "t^(1/0)", "t/(t+1)", "(1+t)^-1", "(1+t)^(1/2)",
                 "t^(-1/2)"):
        with pytest.raises(ParseError,
                           match=re.escape("cannot read %r" % text)):
            parse_poly(text)


def test_chart_json_roundtrip():
    for chart in (a2_chart(), a3_chart(), extend_chart(a2_chart(), 2)):
        data = chart_to_json(chart)
        back = chart_from_json(data)
        assert back.coords == chart.coords
        assert back.metric == chart.metric
        assert back.potential == chart.potential
        assert back.unit == chart.unit
        # bit-exact: serializing again gives the identical document
        assert json.dumps(chart_to_json(back), sort_keys=True) == \
            json.dumps(data, sort_keys=True)


def test_extended_chart_keeps_its_point(tmp_path):
    # the extension of a3 is expanded along phi, with its double cover, also
    # after a round trip through a chart file
    chart = extend_chart(a3_chart(), 2)
    path = str(tmp_path / "ext.json")
    dump_chart(chart, path)
    back = load_chart(path)
    assert back.expansion_point == chart.expansion_point == \
        a3_chart().expansion_point
    exp = expand(back, 4)
    assert (exp.param, exp.cover_degree) == ("phi", 2)
    assert exp.subs["w3"] == MP.var("w3")
    # a chart without a point passes on the parameter it is expanded along
    bare = a2_chart()
    bare.expansion_point = None
    assert extend_chart(bare, 1).expansion_point == {"param": "t1"}


def test_graph_json_roundtrip():
    dg = DecoratedGraph(StableGraph([0, 1], [[1, 2], []], [(0, 1), (0, 1)]),
                        leg_psi={1: 2}, edge_psi=[(1, 0), (0, 0)], kappa=[(), (1,)])
    back = graph_from_json(graph_to_json(dg))
    assert back == dg


def test_vector_json_roundtrip():
    vec = StrataVector.single(DecoratedGraph.smooth(1, 1, leg_psi={1: 1}), F(3, 7))
    vec = vec + StrataVector.single(
        DecoratedGraph(StableGraph([0], [[1]], [(0, 0)])), F(-1, 2))
    back = rational_vector_from_json(vector_to_json(vec))
    assert {d.key() for d in back.terms} == {d.key() for d in vec.terms}
    for dg, c in vec.terms.items():
        assert back.terms[dg] == c


def test_golden_series_text():
    # frozen canonical text of core quantities
    from tautrel.charts import a2_expansion
    from tautrel.frobenius import idempotent_frame
    from tautrel.rmatrix import solve_flatness
    frame = idempotent_frame(a2_expansion(trunc=6))
    R = solve_flatness(frame, K=1)
    texts = sorted(str(R[1].entries[i][j]) for i in range(2) for j in range(2))
    assert texts == [
        "-1/48*t1^(-3/2) + O(t1^4)",
        "-1/8*@i*t1^(-3/2) + O(t1^4)",
        "-1/8*@i*t1^(-3/2) + O(t1^4)",
        "1/48*t1^(-3/2) + O(t1^4)",
    ]
    us = sorted(str(u) for u in frame.u)
    assert us == ["t0 + 2/3*t1^(3/2) + O(t1^7)", "t0 - 2/3*t1^(3/2) + O(t1^7)"]
