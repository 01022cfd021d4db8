"""Text and JSON round-trips: polynomials, charts, graphs, vectors, R-matrices.

Polynomial grammar (also the output of MultiPoly.__str__):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := base ('^' exponent)?
    base    := rational | symbol | '(' expr ')'
    exponent:= integer | '(' integer '/' integer ')'

Series text lists ``coeff*param^(p/q)`` terms sorted by exponent and ends
with ``O(param^T)`` for a finite truncation.  Chart files are JSON with
fields ``dimension``, ``coords``, ``metric``, ``potential``, ``unit_index``
and an optional ``expansion_point``; the writer reproduces its input
bit-exactly.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .frobenius import ChartError, FrobeniusChart
from .graphs import DecoratedGraph, StrataVector
from .multipoly import MultiPoly, NonUnitError

SCHEMA_VERSION = 1


class ParseError(ValueError):
    pass


_TOKEN = re.compile(r"\s*([0-9]+|[A-Za-z_@][A-Za-z_0-9]*|\*\*|[-+*/^()])")


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError("cannot tokenize %r" % text[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ParseError("expected %s, got %r" % (expected or "token", tok))
        self.pos += 1
        return tok

    def parse_expr(self):
        sign = 1
        if self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -1
        value = self.parse_term() * sign
        while self.peek() in ("+", "-"):
            op = self.take()
            term = self.parse_term()
            value = value + term if op == "+" else value - term
        return value

    def parse_term(self):
        value = self.parse_factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.parse_factor()
            if op == "*":
                value = value * rhs
            else:
                value = value * rhs.inverse()
        return value

    def parse_factor(self):
        base = self.parse_base()
        if self.peek() in ("^", "**"):
            self.take()
            exp = self.parse_exponent()
            if exp.denominator == 1:
                e = int(exp)
                base = base ** e if e >= 0 else base.inverse() ** (-e)
            else:
                from .multipoly import monomial_power
                base = monomial_power(base, exp)
        return base

    def parse_base(self):
        tok = self.peek()
        if tok == "(":
            self.take("(")
            value = self.parse_expr()
            self.take(")")
            return value
        if tok == "-":
            self.take()
            return -self.parse_base()
        tok = self.take()
        if tok.isdigit():
            return MultiPoly.const(int(tok))
        if re.match(r"[A-Za-z_@]", tok):
            return MultiPoly.var(tok)
        raise ParseError("unexpected token %r" % tok)

    def parse_exponent(self):
        if self.peek() == "(":
            self.take("(")
            num = int(self.take())
            self.take("/")
            den = int(self.take())
            self.take(")")
            return Fraction(num, den)
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        return Fraction(sign * int(self.take()))


def parse_poly(text) -> MultiPoly:
    """The MultiPoly of ``text``.  Raises ParseError on text that is no
    expression, on a zero denominator and on a division by, or a negative or
    fractional power of, a non-monomial."""
    text = str(text)
    parser = _Parser(_tokenize(text))
    try:
        value = parser.parse_expr()
    except ParseError:
        raise
    except (ZeroDivisionError, NonUnitError, ValueError) as exc:
        raise ParseError("cannot read %r: %s" % (text, exc)) from None
    if parser.peek() is not None:
        raise ParseError("trailing input %r" % parser.tokens[parser.pos:])
    return value


# ---------------------------------------------------------------------------
# charts


def chart_to_json(chart) -> dict:
    out = {
        "schema_version": SCHEMA_VERSION,
        "dimension": chart.dim,
        "coords": list(chart.coords),
        "metric": [[str(x) for x in row] for row in chart.metric],
        "potential": str(chart.potential),
        "unit_index": next(i for i, x in enumerate(chart.unit) if x != 0)
        if sum(1 for x in chart.unit if x) == 1 else None,
        "unit": [str(x) for x in chart.unit],
        "name": chart.name,
    }
    if chart.expansion_point is not None:
        out["expansion_point"] = chart.expansion_point
    return out


def chart_from_json(data) -> FrobeniusChart:
    """The chart of a chart document.  Raises ParseError on a malformed one:
    a missing key, a metric that is not dimension x dimension, a unit index
    out of range, a malformed ``expansion_point``, or a chart that fails
    its own checks (a singular metric, the unit axiom or WDVV)."""
    if not isinstance(data, dict):
        raise ParseError("chart document is not a JSON object")
    try:
        dim = int(data["dimension"])
        coords = list(data.get("coords") or ["t%d" % i for i in range(dim)])
        metric = [[Fraction(x) for x in row] for row in data["metric"]]
        potential = parse_poly(data["potential"])
        if data.get("unit") is not None:
            unit = [Fraction(x) for x in data["unit"]]
        else:
            unit = int(data["unit_index"])
    except KeyError as exc:
        raise ParseError("chart document lacks key %s" % exc) from None
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError("malformed chart document: %s" % exc) from None
    if len(coords) != dim:
        raise ParseError("coords length != dimension")
    rows = data["metric"]
    if not (isinstance(rows, list) and len(rows) == dim
            and all(isinstance(row, list) and len(row) == dim for row in rows)):
        raise ParseError("metric is not a %d x %d matrix" % (dim, dim))
    if isinstance(unit, int) and not 0 <= unit < dim:
        raise ParseError("unit_index %d is out of range for a %d-dimensional "
                         "chart" % (unit, dim))
    if isinstance(unit, list) and len(unit) != dim:
        raise ParseError("unit has %d entries, not %d" % (len(unit), dim))
    point = data.get("expansion_point")
    if point is not None:
        read_expansion_point(point, coords)
    try:
        return FrobeniusChart(coords, metric, potential, unit,
                              name=data.get("name"), expansion_point=point)
    except ChartError as exc:
        raise ParseError("chart document is not a Frobenius chart: %s"
                         % exc) from None


def read_expansion_point(point, coords):
    """``(param, cover_degree, subs)`` of an expansion point on ``coords``:
    ``param`` is None and ``cover_degree`` 1 where the point names none, and
    ``subs`` maps every coordinate to a MultiPoly, itself where the point
    substitutes nothing.  Raises ParseError on a malformed point."""
    if not isinstance(point, dict):
        raise ParseError("expansion_point %s is not an object"
                         % json.dumps(point))
    unknown = sorted(set(point) - {"param", "cover_degree", "subs"})
    if unknown:
        raise ParseError("expansion_point has keys %s besides param, "
                         "cover_degree and subs" % ", ".join(unknown))
    cover = point.get("cover_degree", 1)
    if type(cover) is not int:
        raise ParseError("expansion_point cover_degree %s is not an integer"
                         % json.dumps(cover))
    if cover < 1:
        raise ParseError("expansion_point: cover-degree must be at least 1, "
                         "got %d" % cover)
    subs = point.get("subs") or {}
    if not isinstance(subs, dict):
        raise ParseError("expansion_point subs %s is not an object"
                         % json.dumps(subs))
    unknown = sorted(set(subs) - set(coords))
    if unknown:
        raise ParseError("expansion_point substitutes %s, which are not "
                         "coordinates (%s)" % (", ".join(unknown),
                                               ", ".join(coords)))
    return (point.get("param"), cover,
            {c: parse_poly(subs.get(c, c)) for c in coords})


def load_chart(path) -> FrobeniusChart:
    with open(path) as fh:
        return chart_from_json(json.load(fh))


def dump_chart(chart, path):
    with open(path, "w") as fh:
        json.dump(chart_to_json(chart), fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# graphs and strata vectors


def graph_to_json(dg) -> dict:
    graph = dg.graph
    return {
        "vertices": [{"genus": graph.genera[v],
                      "legs": list(graph.legs[v]),
                      "kappa": list(dg.kappa[v])}
                     for v in range(graph.num_vertices)],
        "edges": [[a, b, dg.edge_psi[i][0], dg.edge_psi[i][1]]
                  for i, (a, b) in enumerate(graph.edges)],
        "leg_psi": {str(l): e for l, e in dg.leg_psi},
    }


def graph_from_json(data) -> DecoratedGraph:
    genera = [v["genus"] for v in data["vertices"]]
    legs = [v["legs"] for v in data["vertices"]]
    kappa = [tuple(v.get("kappa", ())) for v in data["vertices"]]
    edges = [(e[0], e[1]) for e in data["edges"]]
    edge_psi = [(e[2], e[3]) for e in data["edges"]]
    leg_psi = {int(l): e for l, e in data.get("leg_psi", {}).items()}
    from .graphs import _rebuild
    return _rebuild(genera, legs, edges, leg_psi, edge_psi,
                    [list(k) for k in kappa])


def vector_to_json(vector) -> dict:
    terms = []
    for dg, c in vector.terms.items():
        terms.append({"graph": graph_to_json(dg), "coefficient": str(c)})
    terms.sort(key=lambda t: json.dumps(t["graph"], sort_keys=True))
    return {"g": vector.g, "n": vector.n, "terms": terms}


def rational_vector_from_json(data) -> StrataVector:
    return StrataVector(int(data["g"]), int(data["n"]),
                        ((graph_from_json(term["graph"]),
                          Fraction(term["coefficient"]))
                         for term in data["terms"]))


def rmatrix_to_json(R) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "z_orders": [[[str(e) for e in row] for row in R[k].entries]
                     for k in range(R.K + 1)],
        "constants": [[i, k, str(v)] for (i, k), v in sorted(R.constants.items())],
    }


def relations_to_json(rs) -> dict:
    """Each cell's reduced row echelon basis, rows in ascending pivot column:
    equal spans give equal documents."""
    cells = []
    for cell in rs.cells:
        g, n, d = cell
        cells.append({
            "g": g, "n": n, "codim": d,
            "rank": rs.dim(cell),
            "relations": [vector_to_json(v) for v in rs.vectors(cell)],
        })
    return {"schema_version": SCHEMA_VERSION, "cells": cells}


def relations_from_json(data):
    """The spans of a relations document; keys it does not read (such as
    the ``provenance`` of older files) are ignored.  Raises ParseError on a
    malformed document, including one whose cell ``rank`` is not the
    dimension its ``relations`` span."""
    from .relations import RelationSet
    version = data.get("schema_version") if isinstance(data, dict) else None
    if version != SCHEMA_VERSION:
        raise ParseError("unsupported relations schema_version %r" % (version,))
    try:
        cells = [(int(c["g"]), int(c["n"]), int(c["codim"]))
                 for c in data["cells"]]
        ranks = [int(c["rank"]) for c in data["cells"]]
        vectors = [[rational_vector_from_json(rel) for rel in c["relations"]]
                   for c in data["cells"]]
        rs = RelationSet(cells)
    except KeyError as exc:
        raise ParseError("relations document lacks key %s" % exc) from None
    except (TypeError, ValueError, IndexError, ZeroDivisionError) as exc:
        raise ParseError("malformed relations document: %s" % exc) from None
    for cell, rank, vecs in zip(cells, ranks, vectors):
        for vec in vecs:
            if (vec.g, vec.n) != cell[:2]:
                raise ParseError("relation on (g, n) = (%d, %d) in cell %s"
                                 % (vec.g, vec.n, cell))
            try:
                rs.add(cell, vec)
            except ValueError as exc:   # a graph outside the cell's basis
                raise ParseError(str(exc)) from None
        if rank != rs.dim(cell):
            raise ParseError("cell %s claims rank %d but its relations span "
                             "%d" % (cell, rank, rs.dim(cell)))
    return rs
