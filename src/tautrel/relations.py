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
type, iterated to a fixed point within the configured bounds.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .graphs import (DecoratedGraph, StrataVector, _rebuild,
                     enumerate_decorated_basis, enumerate_stable_graphs,
                     forgetful_pushforward, gluing_pushforward, multiply_kappa,
                     multiply_psi)
from .intersect import integrate_against_monomial, smooth_monomial_basis
from .reconstruct import reconstruct_class, unit_insertions


class RelationSet:
    """Per-(g, n, codim) spans of rational strata vectors, kept reduced.

    Each cell holds its reduced row echelon basis as a ``pivot column ->
    row`` map, every row a sparse ``{column: Fraction}`` dict.  Rows are
    fully reduced (zero at every other row's pivot), so one pass of
    ``_reduce`` is exact, and the basis depends only on the span: rows are
    read in ascending pivot order.
    """

    def __init__(self, cells):
        self.cells = sorted(cells)
        self.basis = {}
        self.index = {}
        self.pivots = {cell: {} for cell in self.cells}    # pivot -> row
        for cell in self.cells:
            g, n, d = cell
            basis = enumerate_decorated_basis(g, n, d)
            self.basis[cell] = basis
            self.index[cell] = {dg.key(): i for i, dg in enumerate(basis)}

    def to_row(self, cell, vector):
        index = self.index[cell]
        return {index[dg.key()]: Fraction(c)
                for dg, c in vector.terms.items() if c}

    def _reduce(self, cell, row):
        """Subtract from ``row`` (in place) the rows whose pivots it hits."""
        pivots = self.pivots[cell]
        for f, r in [(row[c], pivots[c]) for c in row if c in pivots]:
            _subtract(row, f, r)
        return row

    def add(self, cell, vector):
        """Row-reduce a new vector into the cell; True if independent."""
        row = self._reduce(cell, self.to_row(cell, vector))
        if not row:
            return False
        piv = min(row)
        d = row[piv]
        for c in row:
            row[c] /= d
        pivots = self.pivots[cell]
        for r in pivots.values():
            if piv in r:
                _subtract(r, r[piv], row)
        pivots[piv] = row
        return True

    def vectors(self, cell):
        out = []
        basis = self.basis[cell]
        pivots = self.pivots[cell]
        for piv in sorted(pivots):
            row = pivots[piv]
            vec = StrataVector(cell[0], cell[1])
            for i in sorted(row):
                vec.terms[basis[i]] = row[i]
            out.append(vec)
        return out

    def dim(self, cell):
        return len(self.pivots[cell])

    def contains(self, cell, vector):
        return not self._reduce(cell, self.to_row(cell, vector))

    def copy(self):
        # basis and index are read-only after __init__, so they are shared
        out = RelationSet([])
        out.cells = self.cells
        out.basis = self.basis
        out.index = self.index
        out.pivots = {cell: {p: dict(r) for p, r in pivots.items()}
                      for cell, pivots in self.pivots.items()}
        return out


def _subtract(row, f, other):
    """row -= f * other on sparse rows, dropping entries that cancel."""
    for c, y in other.items():
        x = row.get(c, 0) - f * y
        if x:
            row[c] = x
        else:
            del row[c]


def insertion_multisets(dim, n):
    """Unordered insertion tuples of flat basis indices."""
    return list(itertools.combinations_with_replacement(range(dim), n))


def extract_relations(spec, cells):
    """Relations of the CohFT spec on the given (g, n, codim) cells.

    The class is reconstructed once per insertion multiset of flat basis
    fields, serially and in a fixed order.  All tuples of a (g, n) share one
    leg-independent graph sum (``reconstruct.graph_weights``, cached on the
    spec), so each reconstruction only contracts its own leg components.
    """
    rs = RelationSet(cells)
    units = unit_insertions(spec.frame)
    by_gn = {}
    for g, n, d in cells:
        by_gn.setdefault((g, n), []).append(d)
    for (g, n), ds in sorted(by_gn.items()):
        dmax = max(ds)
        for combo in insertion_multisets(spec.dim, n):
            insertions = [units[mu] for mu in combo]
            cls = reconstruct_class(spec, g, n, insertions, dmax)
            for d in ds:
                part = cls.codim_part(d)
                for vector in polar_vectors(part):
                    rs.add((g, n, d), vector)
    return rs


def polar_vectors(vector):
    """Rational strata vectors from the negative-exponent coefficients.

    Yields one StrataVector over Q per (exponent, background monomial), in
    increasing exponent.  Raises if a series cannot certify its polar part.
    """
    slots = {}
    for dg, series in vector.terms.items():
        if series.trunc <= 0:
            raise ValueError(
                "truncation %s cannot certify polar coefficients" % series.trunc)
        for k, poly in series.coeffs.items():
            e = Fraction(k, series.ram)
            if e >= 0:
                continue
            for mono, coeff in poly.terms.items():
                slots.setdefault((e, mono), {})[dg] = coeff
    for _, terms in sorted(slots.items(),
                           key=lambda kv: (kv[0][0], str(kv[0][1]))):
        vec = StrataVector(vector.g, vector.n)
        vec.terms = dict(terms)
        yield vec


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

    Worklist closure: every vector added is processed once against all
    operations.  Adjacent leg transpositions generate the full relabeling
    action on spans, so only those are applied.  For the same reason ``vec``
    is grafted with its legs as they are: every relabeling of ``vec`` lies in
    its cell's closed span, and grafting is linear, so grafting the
    relabelings adds nothing the identity grafts of the span's vectors do not
    already give.
    """
    out = rs.copy()
    cells = set(out.cells)
    frontier = [(cell, vec) for cell in out.cells for vec in out.vectors(cell)]
    while frontier:
        cell, vec = frontier.pop()
        g, n, d = cell

        def push(target, vector):
            if target in cells and out.add(target, vector):
                frontier.append((target, vector))

        for i in range(1, n):
            perm = {k: k for k in range(1, n + 1)}
            perm[i], perm[i + 1] = i + 1, i
            push(cell, relabel_legs(vec, perm))
        for i in range(1, n + 1):
            push((g, n, d + 1), multiply_psi(vec, i))
        for a in range(1, max(dd for _, _, dd in cells) - d + 1):
            push((g, n, d + a), multiply_kappa(vec, a))
        if (2 * g - 2 + n - 1) > 0 and d >= 1 and n >= 1:
            push((g, n - 1, d - 1), forgetful_pushforward(vec))
        for target in cells:
            g2, n2, d2 = target
            extra = d2 - d
            if extra < 1 or g2 < g or (g2, n2) == (g, n):
                continue
            for graph in enumerate_stable_graphs(g2, n2, extra):
                if len(graph.edges) != extra:
                    continue
                for glued in _graft_everywhere(graph, vec):
                    push(target, glued)
    return out


def _graft_everywhere(graph, vec):
    """Insert ``vec`` at every matching vertex of ``graph``, with the
    fundamental class at every other vertex (all are stable types)."""
    g, n = vec.g, vec.n
    for v in range(graph.num_vertices):
        if graph.genera[v] != g or len(graph.vertex_markings(v)) != n:
            continue
        yield gluing_pushforward(graph, [
            vec if w == v else StrataVector.single(DecoratedGraph.smooth(
                graph.genera[w], len(graph.vertex_markings(w))))
            for w in range(graph.num_vertices)])


# ---------------------------------------------------------------------------
# comparison and verification


def compare_spans(rs1, rs2):
    """Per-cell verdicts: 'equal', 'left in right', 'right in left',
    'incomparable'; witnesses are vectors outside the other span."""
    out = {}
    for cell in rs1.cells:
        if cell not in rs2.pivots:
            continue
        left_in = all(rs2.contains(cell, v) for v in rs1.vectors(cell))
        right_in = all(rs1.contains(cell, v) for v in rs2.vectors(cell))
        if left_in and right_in:
            out[cell] = ("equal", None)
        elif left_in:
            w = next(v for v in rs2.vectors(cell) if not rs1.contains(cell, v))
            out[cell] = ("left in right", w)
        elif right_in:
            w = next(v for v in rs1.vectors(cell) if not rs2.contains(cell, v))
            out[cell] = ("right in left", w)
        else:
            w = next(v for v in rs1.vectors(cell) if not rs2.contains(cell, v))
            out[cell] = ("incomparable", w)
    return out


def verify_relations(rs):
    """Pair every relation against the partial pairing; report failures.

    Returns {cell: [(row index, monomial, value)]} with nonzero pairings;
    an empty report certifies all pairings vanish.
    """
    failures = {}
    for cell in rs.cells:
        for ridx, vec in enumerate(rs.vectors(cell)):
            for mono, val in verify_vector(vec, cell[2]):
                failures.setdefault(cell, []).append((ridx, mono, val))
    return failures


def verify_vector(vector, codim):
    """Pairing report for one vector; list of (monomial, value) nonzero."""
    g, n = vector.g, vector.n
    dim = 3 * g - 3 + n
    out = []
    for mono in smooth_monomial_basis(g, n, dim - codim):
        val = integrate_against_monomial(vector, mono)
        if val != 0:
            out.append((mono, val))
    return out
