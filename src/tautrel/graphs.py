"""Stable graphs, psi/kappa decorations, and strata-algebra operations.

A basis element of the strata algebra is a decorated stable graph: the
pushforward under the gluing map of a product of psi-powers at markings and
half-edges and kappa-monomials at vertices, with NO automorphism prefactor.
All 1/|Aut| factors belong to reconstruction coefficients.

Canonical forms and cell bases are decided here and nowhere else: one
labeling coset (``_canonical_labeling``) gives a graph's key, its vertex
automorphisms and its least decoration, and ``cell_basis`` fixes the basis
order that relation rows, operator maps and the pairing matrix all index.

The kappa convention is kappa_a = pi_*(psi^(a+1)) at a forgotten point.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import factorial


def _is_zero(c):
    if type(c) in (int, Fraction):
        return c == 0
    return c.is_zero()


class StableGraph:
    """Connected stable dual graph with labeled legs, in canonical form."""

    __slots__ = ("genera", "legs", "edges")

    def __init__(self, genera, legs, edges):
        genera = tuple(int(g) for g in genera)
        legs = tuple(tuple(sorted(l)) for l in legs)
        edges = tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
        genera, legs, edges, _ = _canonical_labeling(genera, legs, edges)
        self.genera = genera
        self.legs = legs
        self.edges = edges

    # -- structure -----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.genera)

    def genus(self):
        v, e = len(self.genera), len(self.edges)
        return sum(self.genera) + e - v + 1

    def num_legs(self):
        return sum(len(l) for l in self.legs)

    def valence(self, v):
        val = len(self.legs[v])
        for a, b in self.edges:
            val += (a == v) + (b == v)
        return val

    def vertex_markings(self, v):
        """Deterministic marking list of the vertex moduli space.

        Entries are ('leg', label) and ('edge', edge_index, side).
        """
        out = [("leg", l) for l in self.legs[v]]
        for idx, (a, b) in enumerate(self.edges):
            if a == v:
                out.append(("edge", idx, 0))
            if b == v:
                out.append(("edge", idx, 1))
        return out

    def aut_order(self):
        """|Aut|: vertex symmetries (the coset of the canonical graph's own
        labeling) times parallel-edge and loop factors."""
        factor = len(_canonical_labeling(*self.key())[3])
        mult = {}
        for e in self.edges:
            mult[e] = mult.get(e, 0) + 1
        for (a, b), m in mult.items():
            factor *= factorial(m)
            if a == b:
                factor *= 2 ** m
        return factor

    def key(self):
        return (self.genera, self.legs, self.edges)

    def __eq__(self, other):
        return isinstance(other, StableGraph) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return "StableGraph(g=%s, legs=%s, edges=%s)" % (self.genera, self.legs,
                                                         list(self.edges))


def _label_preserving_perms(genera, legs):
    """All vertex permutations preserving genus and the exact leg sets."""
    nv = len(genera)
    classes = {}
    for v in range(nv):
        classes.setdefault((genera[v], legs[v]), []).append(v)
    groups = list(classes.values())
    perms_per_group = [list(itertools.permutations(g)) for g in groups]
    for combo in itertools.product(*perms_per_group):
        p = [None] * nv
        for group, image in zip(groups, combo):
            for src, dst in zip(group, image):
                p[src] = dst
        yield tuple(p)


@functools.lru_cache(maxsize=4096)
def _canonical_labeling(genera, legs, edges):
    """Canonical vertex labeling; returns (genera, legs, edges, coset).

    The coset is the tuple of every permutation old->new that achieves the
    canonical form: the maps a decoration is minimized over, and the vertex
    automorphisms when the graph is already canonical.  Arguments are
    tuples and results are memoized: the closure relabels the same few
    hundred shapes tens of thousands of times.  The memo is bounded because
    graph enumeration feeds it every raw degeneration, most of which never
    recur.
    """
    nv = len(genera)
    order = sorted(range(nv), key=lambda v: (genera[v], legs[v]))
    base = [None] * nv
    for new, old in enumerate(order):
        base[old] = new
    best = None
    coset = []
    for p in _label_preserving_perms(tuple(genera[v] for v in order),
                                     tuple(legs[v] for v in order)):
        full = tuple(p[base[v]] for v in range(nv))
        e = tuple(sorted((min(full[a], full[b]), max(full[a], full[b]))
                         for a, b in edges))
        if best is None or e < best:
            best = e
            coset = [full]
        elif e == best:
            coset.append(full)
    new_genera = [0] * nv
    new_legs = [()] * nv
    p0 = coset[0]
    for v in range(nv):
        new_genera[p0[v]] = genera[v]
        new_legs[p0[v]] = tuple(sorted(legs[v]))
    return tuple(new_genera), tuple(new_legs), best, tuple(coset)


# ---------------------------------------------------------------------------


class DecoratedGraph:
    """Stable graph with psi-exponents on legs/half-edges and vertex kappas."""

    __slots__ = ("graph", "leg_psi", "edge_psi", "kappa", "_key", "_hash")

    def __init__(self, graph, leg_psi=None, edge_psi=None, kappa=None):
        # the coset of the canonical graph's own labeling is its Aut
        self._store(graph, leg_psi, _least_decoration(
            _canonical_labeling(*graph.key())[3], graph.edges,
            edge_psi or [(0, 0)] * len(graph.edges),
            kappa or [()] * graph.num_vertices))

    def _store(self, graph, leg_psi, decoration):
        """Fields of a canonical graph and its least decoration."""
        self.graph = graph
        leg_psi = dict(leg_psi or {})
        self.leg_psi = tuple(sorted((l, e) for l, e in leg_psi.items() if e))
        self.edge_psi, self.kappa = decoration
        self._key = (graph.key(), self.leg_psi, self.edge_psi, self.kappa)
        self._hash = hash(self._key)

    def with_leg_psi(self, leg_psi):
        """This decorated graph with the leg psi exponents ``leg_psi`` in
        place of its own.  Its least decoration is kept as it is: every map
        of the coset it was minimized over fixes the legs."""
        out = DecoratedGraph.__new__(DecoratedGraph)
        out._store(self.graph, leg_psi, (self.edge_psi, self.kappa))
        return out

    def codim(self):
        total = len(self.graph.edges)
        total += sum(e for _, e in self.leg_psi)
        total += sum(a + b for a, b in self.edge_psi)
        total += sum(sum(k) for k in self.kappa)
        return total

    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, DecoratedGraph) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return ("Stratum(%r, leg_psi=%s, edge_psi=%s, kappa=%s)"
                % (self.graph, self.leg_psi, self.edge_psi, self.kappa))

    @staticmethod
    def smooth(g, n, leg_psi=None, kappa=()):
        graph = StableGraph([g], [tuple(range(1, n + 1))], [])
        return DecoratedGraph(graph, leg_psi=leg_psi, kappa=[tuple(kappa)])


def _least_decoration(coset, edges, edge_psi, kappa):
    """The least (edge psi pairs, kappas) encoding of the decoration carried
    along each vertex map of ``coset``, every one of which takes ``edges``
    to the same canonical edges."""
    return min(_move_decoration(p, edges, edge_psi, kappa)[1:] for p in coset)


def _move_decoration(p, edges, edge_psi, kappa):
    """Carry kappas and edge psi pairs along the vertex map ``p``.

    Returns (edges, edge psi pairs, kappas) with every edge oriented low to
    high (a loop's smaller psi first) and the edges sorted with their pairs.
    """
    new_kappa = [None] * len(kappa)
    for v, k in enumerate(kappa):
        new_kappa[p[v]] = tuple(sorted(k))
    moved = []
    for (a, b), (xa, xb) in zip(edges, edge_psi):
        na, nb = p[a], p[b]
        if na > nb or (na == nb and xa > xb):
            na, nb, xa, xb = nb, na, xb, xa
        moved.append(((na, nb), (xa, xb)))
    moved.sort()
    return (tuple(e for e, _ in moved), tuple(x for _, x in moved),
            tuple(new_kappa))


# ---------------------------------------------------------------------------


class StrataVector:
    """Formal linear combination of decorated graphs of fixed (g, n)."""

    __slots__ = ("g", "n", "terms")

    def __init__(self, g, n, terms=None):
        self.g = g
        self.n = n
        self.terms = {}
        if terms:
            for dg, c in (terms.items() if isinstance(terms, dict) else terms):
                if _is_zero(c):
                    continue
                if dg in self.terms:
                    acc = self.terms[dg] + c
                    if _is_zero(acc):
                        del self.terms[dg]
                    else:
                        self.terms[dg] = acc
                else:
                    self.terms[dg] = c

    @staticmethod
    def single(dg, coeff=Fraction(1)):
        return StrataVector(dg.graph.genus(), dg.graph.num_legs(), {dg: coeff})

    def __add__(self, other):
        if (self.g, self.n) != (other.g, other.n):
            raise ValueError("cannot add a (%d, %d) vector to a (%d, %d) "
                             "vector" % (other.g, other.n, self.g, self.n))
        return StrataVector(self.g, self.n, itertools.chain(
            self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        out = StrataVector(self.g, self.n)
        for dg, coeff in self.terms.items():
            val = coeff * c
            if not _is_zero(val):
                out.terms[dg] = val
        return out

    def is_zero(self):
        return not self.terms

    def codim_part(self, d):
        out = StrataVector(self.g, self.n)
        out.terms = {dg: c for dg, c in self.terms.items() if dg.codim() == d}
        return out

    def __repr__(self):
        return "StrataVector(g=%d, n=%d, %d terms)" % (self.g, self.n,
                                                       len(self.terms))


# ---------------------------------------------------------------------------
# enumeration


@functools.lru_cache(maxsize=None)
def enumerate_stable_graphs(g, n, max_edges):
    """All stable graphs of type (g, n) with at most max_edges edges.

    Generated by degeneration.  Level 0 is the one-vertex graph of genus g
    carrying legs 1..n, and level e holds the one-edge degenerations of
    level e-1 (``_degenerations``), deduplicated by canonical key.  This
    finds every graph: contracting any edge of a stable graph gives a
    stable graph with one edge fewer, so every graph with e edges is a
    degeneration of one in level e-1.  The levels stop at max_edges, or
    earlier when one comes out empty (past 3g - 3 + n edges).

    Returns a tuple sorted by (edge count, key) and memoizes it: only a few
    dozen (g, n, max_edges) triples occur, and extraction, closure and
    pairing ask for the same ones again.
    """
    if 2 * g - 2 + n <= 0:
        raise ValueError("(g, n) = (%d, %d) is unstable" % (g, n))
    level = [StableGraph([g], [range(1, n + 1)], [])]
    out = list(level)
    for _ in range(max_edges):
        found = {}
        for graph in level:
            for child in _degenerations(graph):
                found.setdefault(child.key(), child)
        if not found:
            break
        level = list(found.values())
        out.extend(level)
    return tuple(sorted(out, key=lambda gr: (len(gr.edges), gr.key())))


def _degenerations(graph):
    """Every stable graph that one new edge at one vertex makes of graph.

    At a vertex of genus h: a loop, when h >= 1, leaving genus h - 1; and a
    split into two vertices of genera h1 + h2 = h joined by the new edge,
    for every way of sharing the vertex's legs and half-edges between them,
    kept when both new vertices are stable.  Yields canonical graphs, with
    repeats.
    """
    new = graph.num_vertices
    for v, h in enumerate(graph.genera):
        if h:
            genera = list(graph.genera)
            genera[v] = h - 1
            yield StableGraph(genera, graph.legs, graph.edges + ((v, v),))
        legs = graph.legs[v]
        halves = [(idx, side) for idx, e in enumerate(graph.edges)
                  for side in (0, 1) if e[side] == v]
        k = len(legs) + len(halves)
        # the last half-edge stays at v: both genus orders are tried, so the
        # mirrored sharing gives the same graphs
        for mask in range(1 << max(k - 1, 0)):
            moved = bin(mask).count("1")
            splits = [h1 for h1 in range(h + 1)
                      if 2 * h1 + k - moved >= 2 and 2 * (h - h1) + moved >= 2]
            if not splits:
                continue
            new_legs = list(graph.legs) + [[]]
            new_legs[v] = []
            for i, label in enumerate(legs):
                new_legs[new if mask >> i & 1 else v].append(label)
            edges = [list(e) for e in graph.edges]
            for i, (idx, side) in enumerate(halves, start=len(legs)):
                if mask >> i & 1:
                    edges[idx][side] = new
            edges.append((v, new))
            for h1 in splits:
                genera = list(graph.genera) + [h - h1]
                genera[v] = h1
                yield StableGraph(genera, new_legs, edges)


def enumerate_decorated_basis(g, n, codim):
    """All decorated graphs of the given codimension, canonical and sorted."""
    out = {}
    for graph in enumerate_stable_graphs(g, n, codim):
        for dg in _decorations(graph, codim - len(graph.edges)):
            out.setdefault(dg.key(), dg)
    return sorted(out.values(), key=lambda d: d.key())


def _decorations(graph, rest):
    """Every leg-psi x half-edge-psi x kappa decoration of ``graph`` of
    total degree ``rest``, with repeats where automorphisms identify two."""
    legs = sorted(l for ls in graph.legs for l in ls)
    edge_sides = [(idx, side) for idx in range(len(graph.edges))
                  for side in (0, 1)]
    for leg_part in _bounded_assignments([range(rest + 1)] * len(legs), rest):
        rest2 = rest - sum(leg_part)
        for side_part in _bounded_assignments(
                [range(rest2 + 1)] * len(edge_sides), rest2):
            rest3 = rest2 - sum(side_part)
            for kappa_combo in _kappa_assignments(rest3, graph.num_vertices):
                leg_psi = {l: e for l, e in zip(legs, leg_part) if e}
                edge_psi = [[0, 0] for _ in graph.edges]
                for (idx, side), e in zip(edge_sides, side_part):
                    edge_psi[idx][side] = e
                yield DecoratedGraph(graph, leg_psi, edge_psi, kappa_combo)


@functools.lru_cache(maxsize=None)
def cell_basis(cell):
    """(basis, index) of a (g, n, codim) cell: the sorted decorated graphs
    and their ``key -> column`` map.  A basis depends only on the cell, so
    relation rows, closure operator maps and the pairing matrix all read
    this one memo."""
    g, n, d = cell
    basis = tuple(enumerate_decorated_basis(g, n, d))
    return basis, {dg.key(): i for i, dg in enumerate(basis)}


def _bounded_assignments(choice_lists, budget):
    """Lexicographic tuples from sorted int lists with total <= budget."""
    if not choice_lists:
        yield ()
        return
    first = choice_lists[0]
    for x in first:
        if x > budget:
            break
        for rest in _bounded_assignments(choice_lists[1:], budget - x):
            yield (x,) + rest


def _kappa_assignments(total, nv):
    """All ways to attach kappa-monomials of total degree == total."""
    if nv == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for part in _partitions(first):
            for rest in _kappa_assignments(total - first, nv - 1):
                yield (tuple(part),) + rest


def _partitions(total, minpart=1):
    if total == 0:
        yield ()
        return
    for first in range(minpart, total + 1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# strata-algebra module actions


def multiply_psi(vector, leg_label, power=1):
    """Multiply by psi_i^power: adds to the exponent of the leg."""
    dim = 3 * vector.g - 3 + vector.n
    pairs = []
    for dg, c in vector.terms.items():
        if dg.codim() + power > dim:
            continue
        leg_psi = dict(dg.leg_psi)
        leg_psi[leg_label] = leg_psi.get(leg_label, 0) + power
        pairs.append((dg.with_leg_psi(leg_psi), c))  # the same decoration
    return StrataVector(vector.g, vector.n, pairs)


def multiply_kappa(vector, a):
    """Multiply by kappa_a; on a graph this distributes over the vertices."""
    if a == 0:
        return vector.scale(2 * vector.g - 2 + vector.n)
    dim = 3 * vector.g - 3 + vector.n
    pairs = []
    for dg, c in vector.terms.items():
        if dg.codim() + a > dim:
            continue
        for v in range(dg.graph.num_vertices):
            kappa = [list(k) for k in dg.kappa]
            kappa[v].append(a)
            pairs.append((DecoratedGraph(dg.graph, dict(dg.leg_psi),
                                         dg.edge_psi, kappa), c))
    return StrataVector(vector.g, vector.n, pairs)


# ---------------------------------------------------------------------------
# gluing pushforward (grafting local classes into a stable graph)


def gluing_pushforward(graph, vertex_vectors):
    """Graft per-vertex StrataVectors into ``graph``; flattens composites.

    ``vertex_vectors[v]`` is a StrataVector on (g_v, n_v) whose markings
    1..n_v correspond, in order, to ``graph.vertex_markings(v)``.
    """
    nv = graph.num_vertices
    pairs = []
    for combo in itertools.product(*[list(vertex_vectors[v].terms.items())
                                     for v in range(nv)]):
        coeff = None
        for _, c in combo:
            coeff = c if coeff is None else coeff * c
        pairs.append((_flatten(graph, [dg for dg, _ in combo]), coeff))
    return StrataVector(graph.genus(), graph.num_legs(), pairs)


def _flatten(graph, inner):
    """One decorated graph per vertex -> a single decorated graph.  Vertex
    w of ``inner[v]`` becomes ``base + w``; a table of the new vertex of each
    inner leg attaches the markings of outer vertex v, in order."""
    genera, legs, kappa, edges, edge_psi = [], [], [], [], []
    leg_psi, ends = {}, {}  # ends: (edge index, side) -> (new vertex, psi)
    for v, dg in enumerate(inner):
        base = len(genera)
        genera.extend(dg.graph.genera)
        legs.extend([] for _ in dg.graph.genera)
        kappa.extend(list(k) for k in dg.kappa)
        for (a, b), x in zip(dg.graph.edges, dg.edge_psi):
            edges.append((base + a, base + b))
            edge_psi.append(x)
        vertex = {l: base + w for w, ls in enumerate(dg.graph.legs)
                  for l in ls}
        psi = dict(dg.leg_psi)
        for local, mk in enumerate(graph.vertex_markings(v), start=1):
            w, x = vertex[local], psi.get(local, 0)
            if mk[0] == "edge":
                ends[mk[1:]] = (w, x)
            else:
                legs[w].append(mk[1])
                leg_psi[mk[1]] = x
    for idx in range(len(graph.edges)):
        (va, xa), (vb, xb) = ends[(idx, 0)], ends[(idx, 1)]
        edges.append((va, vb))
        edge_psi.append((xa, xb))
    return _rebuild(genera, legs, edges, leg_psi, edge_psi, kappa)


# ---------------------------------------------------------------------------
# forgetful pushforward


def forgetful_pushforward(vector):
    """Push forward along the map forgetting the last leg."""
    if vector.n == 0:
        raise ValueError("(g, n) = (%d, 0) has no leg to forget" % vector.g)
    return StrataVector(vector.g, vector.n - 1,
                        (pair for dg, c in vector.terms.items()
                         for pair in _forget_one(dg, c, vector.n)))


def _forget_one(dg, coeff, leg_label):
    """(decorated graph, coefficient) pairs of one forgotten-leg image.

    The leg comes off the raw decoration once, with its psi exponent b.
    Every image is one ``_rebuild`` of that data with one change at the
    leg's vertex, or one ``_contract_vertex`` when the vertex is left an
    unstable (0, 2): no intermediate graph is formed.
    """
    graph = dg.graph
    v = next(i for i, ls in enumerate(graph.legs) if leg_label in ls)
    legs = [[l for l in ls if l != leg_label] for ls in graph.legs]
    leg_psi = dict(dg.leg_psi)
    b = leg_psi.pop(leg_label, 0)
    gv = graph.genera[v]
    val = graph.valence(v) - 1
    if 2 * gv - 2 + val <= 0:
        # one removal from a stable vertex leaves (0, 2), or (1, 0) when the
        # whole graph was (1, 1), whose forgetful map has no stable target
        if gv != 0 or val != 2:
            raise ValueError("forgetting leg %d leaves an unstable (%d, %d) "
                             "vertex" % (leg_label, gv, val))
        # psi at the forgotten point lives on a 0-dimensional fiber, and a
        # kappa class on the contracting M_{0,3} is zero
        if b == 0 and not dg.kappa[v]:
            term = _contract_vertex(graph, legs, leg_psi, dg.edge_psi,
                                    dg.kappa, v)
            if term is not None:
                yield term, coeff
        return

    def image(kappa_v, leg_psi=leg_psi, edge_psi=dg.edge_psi):
        kappa = [kappa_v if w == v else k for w, k in enumerate(dg.kappa)]
        return _rebuild(graph.genera, legs, graph.edges, leg_psi, edge_psi,
                        kappa)

    # stable vertex: expand each kappa over kappa^up = pi^* kappa + psi^b
    kappas = dg.kappa[v]
    for subset in itertools.product([0, 1], repeat=len(kappas)):
        kept = [k for k, s in zip(kappas, subset) if not s]
        B = b + sum(k for k, s in zip(kappas, subset) if s)
        if B == 1:
            # kappa_0 is the scalar 2g - 2 + val
            yield image(kept), coeff * (2 * gv - 2 + val)
        elif B:
            yield image(kept + [B - 1]), coeff
        else:
            # string case: lower one other psi at this vertex
            for l in legs[v]:
                if leg_psi.get(l):
                    lowered = dict(leg_psi)
                    lowered[l] -= 1
                    yield image(kept, leg_psi=lowered), coeff
            for idx, ends in enumerate(graph.edges):
                for side, w in enumerate(ends):
                    if w == v and dg.edge_psi[idx][side]:
                        lowered = [list(x) for x in dg.edge_psi]
                        lowered[idx][side] -= 1
                        yield image(kept, edge_psi=lowered), coeff


def _rebuild(genera, legs, edges, leg_psi, edge_psi, kappa):
    """The decorated graph of raw data.  The raw coset is Aut composed with
    any one of its maps, so one minimization over it suffices."""
    can_g, can_l, can_e, coset = _canonical_labeling(
        tuple(genera), tuple(tuple(sorted(l)) for l in legs), tuple(edges))
    out_graph = StableGraph.__new__(StableGraph)
    out_graph.genera = can_g
    out_graph.legs = can_l
    out_graph.edges = can_e
    out = DecoratedGraph.__new__(DecoratedGraph)
    out._store(out_graph, leg_psi,
               _least_decoration(coset, edges, edge_psi, kappa))
    return out


def _contract_vertex(graph, legs, leg_psi, edge_psi, kappa, v):
    """Contract an unstable genus-0 valence-2 vertex with no decorations.

    Returns the decorated graph, or None when the class is zero.
    """
    attach = []  # (neighbour vertex, psi on its half-edge)
    new_edges = []
    new_edge_psi = []
    for (a, b), (xa, xb) in zip(graph.edges, edge_psi):
        if a == v and b == v:
            # only a (1, 1) graph has a loop at a valence-3 genus-0 vertex
            raise ValueError("cannot contract a loop at vertex %d" % v)
        if a == v:
            if xa:
                return None  # psi on a half-edge of the contracting M_{0,3}
            attach.append((b, xb))
        elif b == v:
            if xb:
                return None  # psi on a half-edge of the contracting M_{0,3}
            attach.append((a, xa))
        else:
            new_edges.append((a, b))
            new_edge_psi.append((xa, xb))
    hanging_legs = [(l, leg_psi.get(l, 0)) for l in legs[v]]
    if len(attach) + len(hanging_legs) != 2 or not attach:
        # valence 2 is checked by the caller; no edges means the graph was
        # (0, 3), whose forgetful map has no stable target
        raise ValueError("cannot contract vertex %d with %d edges and %d legs"
                         % (v, len(attach), len(hanging_legs)))
    if len(attach) == 2:
        (w1, x1), (w2, x2) = attach
        new_edges.append((min(w1, w2), max(w1, w2)))
        new_edge_psi.append((x1, x2) if w1 <= w2 else (x2, x1))
    else:
        (w, xw), (l, xl) = attach[0], hanging_legs[0]
        if xl:
            return None  # psi on the surviving leg at the contracting M_{0,3}
        # the half-edge psi at w survives as the leg psi
        legs[w].append(l)
        leg_psi = dict(leg_psi)
        leg_psi[l] = xw
    genera = [g for i, g in enumerate(graph.genera) if i != v]
    legs = [ls for i, ls in enumerate(legs) if i != v]
    kappa = [k for i, k in enumerate(kappa) if i != v]

    def rn(i):
        return i if i < v else i - 1

    new_edges = [(rn(a), rn(b)) for a, b in new_edges]
    new_edges = [(min(a, b), max(a, b)) for a, b in new_edges]
    return _rebuild(genera, legs, new_edges, leg_psi, new_edge_psi, kappa)
