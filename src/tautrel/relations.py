"""Tautological relations from pole cancellation along the discriminant.

For each (g, n, codim) cell and each insertion tuple of flat basis fields,
the reconstructed class is a strata vector whose coefficients are exact
Puiseux series in the local parameter; the coefficient row of every negative
exponent (and of every background monomial appearing there) is a relation
vector over Q.  psi-weighted insertions are not needed as generators: a
psi^w-weighted leg multiplies the whole class by psi_j^w, so the closure
under psi/kappa-multiplication generates them.

Closure follows the stability definition: psi/kappa multiplication, leg
relabeling, forgetful pushforward, and grafting into stable graphs of larger
type, iterated to a fixed point within the configured bounds: the leg
relabelings first, then the other operations (``close_relations``).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from fractions import Fraction
from math import lcm

from .frobenius import integer_row, reduce_row, rref
from .graphs import (DecoratedGraph, StrataVector, _rebuild, cell_basis,
                     enumerate_stable_graphs, forgetful_pushforward,
                     gluing_pushforward, multiply_kappa, multiply_psi)
from .intersect import pairing_matrix
from .reconstruct import reconstruct_class, unit_insertions


def to_row(cell, vector):
    """The rational ``{column: Fraction}`` row of a StrataVector in the
    basis of ``cell``; raises ValueError on a graph outside that basis."""
    _, index = cell_basis(cell)
    row = {}
    for dg, c in vector.terms.items():
        i = index.get(dg.key())
        if i is None:
            raise ValueError("relation in cell %s has a graph outside the "
                             "cell's basis: %r" % (cell, dg))
        if c:
            row[i] = Fraction(c)
    return row


class RelationSet:
    """Per-(g, n, codim) spans of rational strata vectors, kept reduced.

    Each cell holds its span as the ``pivot column -> row`` map of
    ``frobenius.rref``: sparse primitive ``{column: int}`` rows with a
    positive entry at their pivot, the least column, and zero at every other
    pivot, so the rows depend only on the span.  ``vectors`` divides each row
    by its pivot entry, which gives the rational RREF basis in ascending
    pivot order.
    """

    def __init__(self, cells):
        self.cells = sorted(set(cells))
        for cell in self.cells:
            cell_basis(cell)    # an unstable cell fails here
        self.pivots = {cell: {} for cell in self.cells}    # pivot -> row

    def _integer_row(self, cell, vector):
        """A fresh integer row: a StrataVector with its denominators
        cleared, or a copy of an integer row without its zero entries."""
        if not isinstance(vector, StrataVector):
            return {c: x for c, x in vector.items() if x}
        return integer_row(to_row(cell, vector))

    def add(self, cell, vector):
        """Row-reduce a StrataVector or an integer row into the cell; True
        if it was independent."""
        pivots = self.pivots[cell]
        dim = len(pivots)
        rref([self._integer_row(cell, vector)], pivots)
        return len(pivots) > dim

    def vectors(self, cell):
        pivots = self.pivots[cell]
        return [_row_vector(cell, pivots[piv]) for piv in sorted(pivots)]

    def dim(self, cell):
        return len(self.pivots[cell])

    def contains(self, cell, vector):
        """Whether a StrataVector or an integer row lies in the span."""
        return not reduce_row(self.pivots[cell],
                              self._integer_row(cell, vector))


def _row_vector(cell, row):
    """The StrataVector of an integer row of ``cell``, divided by the entry
    at its pivot, the least column."""
    basis, _ = cell_basis(cell)
    lead = row[min(row)]
    vec = StrataVector(cell[0], cell[1])
    for i in sorted(row):
        vec.terms[basis[i]] = Fraction(row[i], lead)
    return vec


def extract_relations(spec, cells):
    """Relations of the CohFT spec on the given (g, n, codim) cells.

    The class is reconstructed once per insertion multiset of flat basis
    fields, serially and in a fixed order.  All tuples of a (g, n) share one
    leg-independent graph sum (``reconstruct.contraction_plan``, cached on
    the spec), so each reconstruction only forms its own leg factors.

    A multiset's tuple is sorted, so its equal insertions sit on adjacent
    legs, and the transpositions (i, i + 1) of adjacent equal legs generate
    the leg permutations that fix it.  Each reconstruction gets their orbits
    (``leg_orbits``) and evaluates one coefficient per orbit: the class is
    equivariant, so the others are copies.

    The class's terms are grouped by codim in one pass, and each cell's
    group goes to ``polar_vectors``, whose integer rows are added as they
    are: no rational vector is built between the series and the span.
    """
    rs = RelationSet(cells)
    units = unit_insertions(spec.frame)
    by_gn = {}
    for g, n, d in rs.cells:
        by_gn.setdefault((g, n), []).append(d)
    for (g, n), ds in sorted(by_gn.items()):
        dmax = max(ds)
        for combo in itertools.combinations_with_replacement(range(spec.dim),
                                                             n):
            insertions = [units[mu] for mu in combo]
            cls = reconstruct_class(spec, g, n, insertions, dmax,
                                    leg_orbits(g, n, dmax, combo))
            parts = {}
            for dg, series in cls.terms.items():
                parts.setdefault(dg.codim(), []).append((dg, series))
            for d in ds:
                cell = (g, n, d)
                try:
                    rows = list(polar_vectors(cell, parts.get(d, ())))
                except ValueError as exc:
                    raise ValueError("cell %s with trunc %s: %s"
                                     % (cell, spec.frame.expansion.trunc,
                                        exc)) from None
                for row in rows:
                    rs.add(cell, row)
    return rs


@functools.lru_cache(maxsize=None)
def leg_orbits(g, n, dmax, labels):
    """The orbits, on the basis of every cell (g, n, d) with 1 <= d <= dmax
    up to the dimension 3g - 3 + n, of the transpositions (i, i + 1) of the
    adjacent legs whose insertion labels ``labels[i - 1]`` and ``labels[i]``
    are equal: a dict from each decorated graph whose orbit has more than
    one element to the orbit's least basis element.  Codim 0 holds the
    smooth graph alone.

    The orbits are read from the closure's ``("swap", i)`` operator maps,
    each a permutation of its cell's basis, which the closure then finds
    memoized.  Memoized too: they do not depend on the chart.
    """
    swaps = [i for i in range(1, n) if labels[i - 1] == labels[i]]
    orbits = {}
    for d in range(1, min(dmax, 3 * g - 3 + n) + 1):
        cell = (g, n, d)
        basis = cell_basis(cell)[0]
        perms = [[k for (k,) in operator_map(cell, ("swap", i), cell)]
                 for i in swaps]
        least = [None] * len(basis)
        for j in range(len(basis)):
            if least[j] is not None:
                continue
            least[j] = j
            orbit = [j]
            for k in orbit:     # grows while it is walked
                for perm in perms:
                    if least[perm[k]] is None:
                        least[perm[k]] = j
                        orbit.append(perm[k])
            if len(orbit) > 1:
                for k in orbit:
                    orbits[basis[k]] = basis[j]
    return orbits


def polar_vectors(cell, terms):
    """Integer relation rows from the negative-exponent coefficients.

    ``terms`` are the (decorated graph, series) pairs of a class in
    ``cell``.  Yields one ``{column: int}`` row in the cell's basis per
    (exponent, background monomial), in increasing exponent: each series'
    integer numerators below exponent 0, over its one ``den``, brought over
    the lcm of the row's denominators.  Raises ValueError if a series
    cannot certify its polar part or a graph with one lies outside the
    cell's basis.
    """
    _, index = cell_basis(cell)
    slots = {}
    for dg, series in terms:
        if series.trunc <= 0:
            raise ValueError(
                "truncation %s cannot certify polar coefficients" % series.trunc)
        polar, den = series.polar_terms()
        if not polar:
            continue
        col = index.get(dg.key())
        if col is None:
            raise ValueError("relation in cell %s has a graph outside the "
                             "cell's basis: %r" % (cell, dg))
        for e, mono, num in polar:
            slots.setdefault((e, mono), []).append((col, num, den))
    for _, entries in sorted(slots.items(),
                             key=lambda kv: (kv[0][0], str(kv[0][1]))):
        m = lcm(*[den for _, _, den in entries])
        yield {col: num * (m // den) for col, num, den in entries}


# ---------------------------------------------------------------------------
# closure under the tautological operations


def relabel_legs(vector, perm):
    """Apply a permutation of leg labels; perm maps old label -> new label."""
    pairs = []
    for dg, c in vector.terms.items():
        graph = dg.graph
        legs = [tuple(perm[l] for l in ls) for ls in graph.legs]
        pairs.append((_rebuild(graph.genera, legs, graph.edges,
                               {perm[l]: e for l, e in dg.leg_psi},
                               dg.edge_psi, [list(k) for k in dg.kappa]), c))
    return StrataVector(vector.g, vector.n, pairs)


def close_relations(rs):
    """Smallest stable system containing rs, within its cells.

    Two priority closures (``_close``), each on basis coordinates and
    starting from an empty RelationSet.  The first closes the rows of
    ``rs`` under the adjacent leg transpositions ``("swap", i)`` alone.
    These generate the leg relabelings, so it gives the span of every
    relabeling of the seeds: the smallest span that contains them and is
    stable under S_n.  The second closes that span under every other
    operation of ``closure_operations``, with no swaps: psi_j for every
    leg j, kappa_a, forgetting the last leg, and grafting into every listed
    graph at every vertex of the cell's type.  Each of these families
    commutes with the leg relabelings up to a permutation of its members:
    a relabeling takes psi_j to psi_sigma(j); a relabeling of legs 1 to
    n - 1 commutes with forgetting leg n; and a relabeled graft is a graft
    of a relabeled row into the isomorphic listed graph.  So each family
    takes an S_n-stable span to an S_n-stable span, and so does every step
    of the second closure.  Its result is therefore stable under the swaps as well: the
    same smallest stable system as one closure under every operation, and
    with it the same RREF, which depends only on the span.  For the same
    reason a row is grafted with its legs as they are: every relabeling
    lies in its cell's span, and grafting is linear.
    """
    return _close(_close(rs, True), False)


def _close(rs, swaps):
    """The priority closure of the rows of ``rs`` under the swaps of
    ``closure_operations`` (``swaps`` True) or under its other operations.

    The frontier is a heap of integer rows keyed by (bit length of the
    largest entry, number of entries, insertion order), seeded with the
    rows of ``rs``.  The smallest row goes to ``add`` first, and only a row
    that ``add`` accepts has its images pushed, one per operation, each a
    column map from its cell's basis to the target cell's basis
    (``operator_map``).  A rejected row lies in the span of the rows
    accepted before it, so its images lie in the span of theirs.  The
    closed span, and with it the RREF, does not depend on the order;
    taking small rows first keeps the large integers of extracted rows out
    of the back-substitution of every later row.
    """
    cells = rs.cells
    out = RelationSet(cells)
    frontier = []
    order = itertools.count()

    def push(cell, row):
        size = max(abs(x) for x in row.values()).bit_length()
        heapq.heappush(frontier, (size, len(row), next(order), cell, row))

    for cell in cells:
        for row in rs.pivots[cell].values():
            push(cell, row)
    maps = {}     # source cell -> [(target cell, operator map)]
    while frontier:
        *_, cell, row = heapq.heappop(frontier)
        if not out.add(cell, row):
            continue
        if cell not in maps:
            maps[cell] = [(target, operator_map(cell, op, target))
                          for op, target in closure_operations(cell, cells)
                          if (op[0] == "swap") == swaps]
        for target, opmap in maps[cell]:
            image = _apply_map(opmap, row)
            if image:
                push(target, image)
    return out


def closure_operations(cell, cells):
    """(operation, target cell) pairs of the closure from ``cell`` into
    ``cells``.  An operation is ``("swap", i)`` (legs i and i + 1),
    ``("psi", i)``, ``("kappa", a)``, ``("forget",)`` (the last leg) or
    ``("glue", graph, v)``: graft into ``graph`` at vertex v, with the
    fundamental class at every other vertex."""
    g, n, d = cell
    dmax = max(dd for _, _, dd in cells)
    ops = [(("swap", i), cell) for i in range(1, n)]
    ops += [(("psi", i), (g, n, d + 1)) for i in range(1, n + 1)]
    ops += [(("kappa", a), (g, n, d + a)) for a in range(1, dmax - d + 1)]
    if (2 * g - 2 + n - 1) > 0 and d >= 1 and n >= 1:
        ops.append((("forget",), (g, n - 1, d - 1)))
    for target in cells:
        g2, n2, d2 = target
        extra = d2 - d
        if extra < 1 or g2 < g or (g2, n2) == (g, n):
            continue
        for graph in enumerate_stable_graphs(g2, n2, extra):
            if len(graph.edges) != extra:
                continue
            for v in range(graph.num_vertices):
                if graph.genera[v] == g and \
                        len(graph.vertex_markings(v)) == n:
                    ops.append((("glue", graph, v), target))
    return [(op, target) for op, target in ops if target in cells]


@functools.lru_cache(maxsize=None)
def operator_map(source, op, target):
    """The closure operation ``op`` as a column map: entry j is the integer
    row, in the target cell's basis, of the operation applied to source basis
    element j.  Memoized: it does not depend on the chart, so every closure
    of a run shares it."""
    return tuple(
        _integral_row(target, _graph_operation(op, StrataVector.single(dg)))
        for dg in cell_basis(source)[0])


def _graph_operation(op, vec):
    kind = op[0]
    if kind == "swap":
        i = op[1]
        perm = {k: k for k in range(1, vec.n + 1)}
        perm[i], perm[i + 1] = i + 1, i
        return relabel_legs(vec, perm)
    if kind == "psi":
        return multiply_psi(vec, op[1])
    if kind == "kappa":
        return multiply_kappa(vec, op[1])
    if kind == "forget":
        return forgetful_pushforward(vec)
    _, graph, v = op
    return gluing_pushforward(graph, [
        vec if w == v else StrataVector.single(DecoratedGraph.smooth(
            graph.genera[w], len(graph.vertex_markings(w))))
        for w in range(graph.num_vertices)])


def _integral_row(cell, vector):
    row = to_row(cell, vector)
    for c in row.values():
        if c.denominator != 1:
            raise ValueError("closure operation has a non-integral "
                             "coefficient %s" % c)
    return {i: c.numerator for i, c in row.items()}


def _apply_map(opmap, row):
    """The integer row image of ``row`` under a column map, without the
    entries that cancel."""
    out = {}
    for c, x in row.items():
        for t, y in opmap[c].items():
            out[t] = out.get(t, 0) + x * y
    return {t: x for t, x in out.items() if x}


# ---------------------------------------------------------------------------
# comparison and verification


def compare_spans(rs1, rs2):
    """Per-cell verdicts: 'equal', 'left in right', 'right in left',
    'incomparable'; a witness is the first RREF vector, in pivot order,
    outside the other span (of the right span for 'left in right')."""
    out = {}
    for cell in rs1.cells:
        if cell not in rs2.pivots:
            continue
        left_out = [row for _, row in sorted(rs1.pivots[cell].items())
                    if not rs2.contains(cell, row)]
        right_out = [row for _, row in sorted(rs2.pivots[cell].items())
                     if not rs1.contains(cell, row)]
        if not left_out and not right_out:
            out[cell] = ("equal", None)
        elif not left_out:
            out[cell] = ("left in right", _row_vector(cell, right_out[0]))
        elif not right_out:
            out[cell] = ("right in left", _row_vector(cell, left_out[0]))
        else:
            out[cell] = ("incomparable", _row_vector(cell, left_out[0]))
    return out


def verify_relations(rs):
    """Pair every relation against the partial pairing; report failures.

    Returns {cell: [(row index, monomial, value)]} with nonzero pairings;
    an empty report certifies all pairings vanish.
    """
    failures = {}
    for cell in rs.cells:
        for ridx, (piv, row) in enumerate(sorted(rs.pivots[cell].items())):
            for mono, val in _pairings(cell, row):
                failures.setdefault(cell, []).append(
                    (ridx, mono, Fraction(val, row[piv])))
    return failures


def verify_vector(vector, codim):
    """Pairing report for one vector; list of (monomial, value) nonzero."""
    cell = (vector.g, vector.n, codim)
    return _pairings(cell, to_row(cell, vector))


def _pairings(cell, row):
    """The nonzero (monomial, value) pairings of a ``{column: value}`` row
    of ``cell``, through the cell's partial-pairing matrix."""
    _, cols, matrix = pairing_matrix(*cell)
    terms = [(matrix[i], c) for i, c in row.items()]
    out = []
    for j, mono in enumerate(cols):
        val = sum(pairings[j] * c for pairings, c in terms)
        if val != 0:
            out.append((mono, val))
    return out
