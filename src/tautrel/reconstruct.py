"""Givental-Teleman reconstruction as a sum over colored stable graphs.

The engine evaluates, for a semisimple frame with R-matrix,

    Omega_{g,n}(v_1, ..., v_n) =
      sum_Gamma 1/|Aut| xi_* ( prod_v sum_k Delta_i^((2g_v-2+n_v+k)/2) / k!
          pi_* ( prod legs/edges  prod_j T(psi_j) ) )

with A(psi) applied at legs, the symplectic edge bivector
(A(psi_1) A(psi_2)^t - Id)/(-(psi_1+psi_2)) at edges and the dilaton leaf
T(psi) = psi (Id - A(psi)) 1 at the extra markings, where A(z) is the
flatness solution of the rmatrix module.  The pushforward pi_* of the
extra-marking psi powers into vertex kappa classes is
``graphs.forgetful_pushforward``, the one-point rule the closure uses too.
In the symplectic-group packaging the element acting on the TQFT is
A(z)^{-1}; the orientation (A versus its inverse at the legs) is pinned by
two independent anchors exercised in the tests: genus-zero integrals must
equal derivatives of the potential, and the exponential chart
(d/dt)^2 = e^t d/dt0 must integrate the genus-one one-point value -1/24 of
the projective line.  Coefficients are exact Puiseux series; the output is a
StrataVector whose basis elements are raw gluing pushforwards (no 1/|Aut|
inside basis classes).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

from .frobenius import ChartError
from .graphs import (DecoratedGraph, StrataVector, _bounded_assignments,
                     _canonical_labeling, enumerate_stable_graphs,
                     forgetful_pushforward)
from .puiseux import PuiseuxSeries


class CohFTSpec:
    """Frame + R-matrix, with the graph-sum caches built on them.

    Each cache lives as long as the spec and is formed once: the edge
    bivector to one degree below the largest bound a plan has asked for,
    each vertex k-sum per (genus, markings, color) at the largest budget
    asked for, and each contraction plan per (g, n, bound)."""

    def __init__(self, frame, R):
        self.frame = frame
        self.R = R
        self._leg_cache = []        # see leg_series
        self._leaf_cache = None     # see dilaton_leaf
        self._vertex_cache = {}     # see vertex_contributions
        self._edge_cache = (-1, {})     # see contraction_plan
        self._plan_cache = {}       # see contraction_plan
        self._delta_cache = {}      # see delta_power

    @property
    def dim(self):
        return self.frame.dim

    @property
    def param(self):
        return self.frame.param

    def delta_power(self, i, m):
        """Delta_i^(m/2) as a series, for an integer m, formed once per
        (i, m)."""
        out = self._delta_cache.get((i, m))
        if out is None:
            out = self._delta_cache[i, m] = self.frame.sqrt_delta[i] ** m
        return out


def leg_series(spec, vector_normalized):
    """The leg insertion A(psi) v in normalized coordinates: the component
    list A[p] v over colors for every order p of A, formed once per spec and
    vector (``spec._leg_cache`` lists (vector, components), found by
    equality).  The slots of a contraction plan name only the powers up to
    its bound."""
    for v, comps in spec._leg_cache:
        if v == vector_normalized:
            return comps
    comps = [a.apply(vector_normalized) for a in spec.R.orders]
    spec._leg_cache.append((list(vector_normalized), comps))
    return comps


def edge_series(spec, bound):
    """The edge bivector coefficients B[p][q] (matrices over colors).

    B(psi1, psi2) = (A(psi1) A(psi2)^t - Id) / (-(psi1 + psi2)); exactness of
    the division is the symplectic condition and is verified.
    """
    A = spec.R.orders
    K = len(A) - 1

    def N(p, q):
        # the psi1^p psi2^q coefficient of A(psi1) A(psi2)^t - Id; Id sits
        # at p = q = 0, which is never asked for
        if p > K or q > K:
            return None
        return A[p] * A[q].transpose()

    B = {}
    for s in range(0, bound + 1):
        # solve N_{p,q} = -(B_{p-1,q} + B_{p,q-1}) for B of total degree s
        for i in range(0, s + 1):
            p, q = s - i, i
            val = N(p + 1, q)
            if val is None:
                continue
            acc = -val
            if i >= 1 and (p + 1, q - 1) in B:
                acc = acc - B[(p + 1, q - 1)]
            B[(p, q)] = acc
        # consistency: N_{0,s+1} = -(B_{-1,s+1} + B_{0,s})
        check = N(0, s + 1)
        if check is not None and (0, s) in B:
            resid = check + B[(0, s)]
            if not resid.is_zero():
                raise ChartError("edge bivector not divisible: "
                                 "broken symplectic condition at degree %d" % s)
    # B(psi2, psi1) = B(psi1, psi2)^t, but an entry and its mirror come out
    # of different products and may be known to different truncations: both
    # become the one known to the higher truncation, so that a graph's terms
    # do not depend on the orientation of its edges (``_graph_terms``)
    for (p, q), mat in B.items():
        mirror = B.get((q, p))
        if mirror is None:
            continue
        for i, row in enumerate(mat.entries):
            for j, x in enumerate(row):
                y = mirror.entries[j][i]
                if y.trunc > x.trunc:
                    row[j] = y
                else:
                    mirror.entries[j][i] = x
    return B


def dilaton_leaf(spec, bound):
    """T(psi) = psi (Id - A(psi)) 1 as {power: component list}; O(psi^2).

    The powers are formed once per spec, on the first call: ``spec._leaf_cache``
    maps each power whose components do not all vanish to its components.
    """
    cache = spec._leaf_cache
    if cache is None:
        A = spec.R.orders
        unit = spec.frame.unit_normalized()
        # psi^1 term: (Id - A[0]) 1 = 0
        if any(not (a - b).is_zero() for a, b in zip(unit, A[0].apply(unit))):
            raise ChartError("dilaton leaf has a nonzero psi^1 term")
        cache = spec._leaf_cache = {}
        for p in range(2, len(A) + 1):
            comp = A[p - 1].apply(unit)
            if any(not c.is_zero() for c in comp):
                cache[p] = [-c for c in comp]
    return {p: cache[p] for p in range(2, bound + 1) if p in cache}


def vertex_contributions(spec, gv, nmark, color, budget):
    """k-summed local vertex terms: {(extra codim, kappa tuple): series}.

    The extra codim of a k-tuple (b_1..b_k) is sum(b_l) - k >= k; together
    with T = O(psi^2) this makes the k-sum finite at every budget.  The kappa
    terms of a k-tuple come from ``forgetful_pushforward`` applied k times to
    prod psi^(b_l) at the extra points; as every b_l >= 2, no string or
    kappa_0 term arises.

    A term of extra codim x is the same series at every budget of at least
    x, so ``spec._vertex_cache`` keeps one dict per (gv, nmark, color),
    formed at the largest budget asked for so far.  The dict returned may
    hold terms of extra codim above ``budget``; the caller skips them.
    """
    cached = spec._vertex_cache.get((gv, nmark, color))
    if cached is not None and cached[0] >= budget:
        return cached[1]
    T = dilaton_leaf(spec, budget + 1)
    out = {}
    base = 2 * gv - 2 + nmark
    for k in range(0, budget + 1):
        for combo in itertools.product(sorted(T), repeat=k):
            extra = sum(combo) - k
            if extra > budget:
                continue
            coeff = PuiseuxSeries.const(Fraction(1, factorial(k)), spec.param)
            for b in combo:
                coeff = coeff * T[b][color]
            coeff = coeff * spec.delta_power(color, base + k)
            if coeff.is_zero():
                continue
            pushed = StrataVector.single(DecoratedGraph.smooth(
                gv, nmark + k, {nmark + l: b for l, b in enumerate(combo, 1)}))
            for _ in range(k):
                pushed = forgetful_pushforward(pushed)
            for dg, rat in pushed.terms.items():
                okey = (extra, dg.kappa[0])
                prev = out.get(okey)
                term = coeff * rat
                out[okey] = term if prev is None else prev + term
        if not T:
            break
    spec._vertex_cache[gv, nmark, color] = (budget, out)
    return out


def to_normalized_insertion(frame, flat_vector):
    """Convert a flat vector of rationals into normalized coords."""
    return frame.to_normalized([PuiseuxSeries.const(c, frame.param)
                                for c in flat_vector])


def unit_insertions(frame):
    """The flat basis fields e_0, ..., e_{dim-1} as normalized insertions."""
    return [to_normalized_insertion(
        frame, [Fraction(int(k == mu)) for k in range(frame.dim)])
        for mu in range(frame.dim)]


def reconstruct_class(spec, g, n, insertions, codim_bound, orbits=None):
    """The reconstruction as a StrataVector with Puiseux-series coefficients.

    ``insertions`` is a list of normalized-coordinate vectors, one per
    marking; see ``to_normalized_insertion``.  A psi class on a leg is not an
    insertion: multiply the class by it with ``graphs.multiply_psi``, as
    the closure does.  The class is multilinear in the insertions:
    everything that does not depend on them is formed once per spec
    (``contraction_plan``), and only the leg factors are formed here.

    A leg factor depends only on the multiset of (insertion class, psi
    power, color) of its legs, where legs with equal insertions share a
    class and its components (``leg_series``); it is keyed by that sorted
    tuple and formed once per call (``_leg_factor``), for the plan's slots.
    A zero factor leaves out its pairs, and an entry with no pair left is
    left out.  Each other coefficient is formed once, by
    ``PuiseuxSeries.sum_of_products``, with no series built per term.  It is
    known below the least truncation of its products, so products that
    cancel still bound it; one that cancels completely is left out of the
    class.

    ``orbits``, if given, maps decorated graphs to orbit labels under a
    group of leg permutations that fix the insertions (as
    ``relations.leg_orbits`` forms them).  A permutation that fixes the
    insertions takes each plan entry to one whose pairs are the same leg
    factors times the same weight series, so within an orbit only the first
    entry of the plan is evaluated, with its leg factors, and every other
    entry gets its series, truncation included.
    """
    if len(insertions) != n:
        raise ValueError("expected %d insertions" % n)
    bound = min(codim_bound, 3 * g - 3 + n)
    distinct = []
    leg_class = []
    for v in insertions:
        for c, cv in enumerate(distinct):
            if cv == v:
                break
        else:
            c = len(distinct)
            distinct.append(v)
        leg_class.append(c)
    class_data = [leg_series(spec, v) for v in distinct]
    memo = {(): PuiseuxSeries.const(1, spec.param)}
    factors = {}    # slot -> its leg factor
    orbits = orbits or {}
    firsts = {}     # orbit label -> the orbit's first entry
    out = StrataVector(g, n)
    for dg, slots in contraction_plan(spec, g, n, bound):
        label = orbits.get(dg)
        if label is not None:
            first = firsts.setdefault(label, dg)
            if first is not dg:
                coeff = out.terms.get(first)
                if coeff is not None:
                    out.terms[dg] = coeff
                continue
        pairs = []
        for slot, weight in slots:
            factor = factors.get(slot)
            if factor is None:
                leg_psi, colors = slot
                factor = factors[slot] = _leg_factor(
                    memo, tuple(sorted(zip(leg_class, leg_psi, colors))),
                    class_data)
            if not factor.is_zero():
                pairs.append((factor, weight))
        if pairs:
            coeff = PuiseuxSeries.sum_of_products(pairs, spec.param)
            if not coeff.is_zero():
                out.terms[dg] = coeff
    return out


def contraction_plan(spec, g, n, bound):
    """The graph sum of type (g, n) less its leg factors, cached on the spec:
    (decorated graph with its leg psi, [(slot, weight)]) per coefficient the
    class can have, a slot (leg psi, leg colors) naming a leg factor.

    One pass over the stable graphs: each term of ``_graph_terms``, of extra
    codim ``x`` on a graph with E edges, goes into every leg-psi assignment
    of total at most ``bound - E - x``, of powers among those of A(psi),
    listed once per remaining budget.  The pairs are collected per (leg psi,
    decorated graph), and only then do the leg psi go on the graph.  The
    series are formed once per graph shape of the pass (``_graph_terms``).
    The edge bivector is formed once per spec, to degree ``bound - 1`` for
    the largest bound asked for (``spec._edge_cache`` holds (degree, B)): a
    graph with E >= 1 edges reads its entries only to degree ``bound - E``,
    and these do not depend on the degree it was formed to.  A bound-0
    plan has only edgeless graphs and gets the empty B.

    Raises ValueError when ``bound`` exceeds the order K of the R-matrix:
    the class would lack the terms that need A(psi) above psi^K."""
    if bound > spec.R.K:
        raise ValueError("a class to codim %d needs the R-matrix to z^%d, "
                         "got z^%d" % (bound, bound, spec.R.K))
    key = (g, n, bound)
    plan = spec._plan_cache.get(key)
    if plan is None:
        edge_degree, B = spec._edge_cache
        if edge_degree < bound - 1:
            B = edge_series(spec, bound - 1)
            spec._edge_cache = (bound - 1, B)
        powers = [range(min(len(spec.R.orders), bound + 1))] * n
        # fits[rem]: the leg psi assignments of total at most rem
        fits = [list(_bounded_assignments(powers, rem))
                for rem in range(bound + 1)]
        groups = {}     # (leg psi, decorated graph) -> [(slot, weight)]
        shapes = {}     # see _graph_terms
        for graph in enumerate_stable_graphs(g, n, bound):
            budget = bound - len(graph.edges)
            for extra, colors, dg, weight in _graph_terms(spec, graph, B,
                                                          bound, shapes):
                for leg_psi in fits[budget - extra]:
                    groups.setdefault((leg_psi, dg), []).append(
                        ((leg_psi, colors), weight))
        plan = spec._plan_cache[key] = [
            (dg.with_leg_psi(dict(enumerate(leg_psi, start=1))), pairs)
            for (leg_psi, dg), pairs in groups.items()]
    return plan


def _leg_factor(memo, key, class_data):
    """Product of the leg components named by the sorted ``key``, memoized
    with every prefix; a one-leg factor is the component itself.

    A zero component or prefix is returned as it is, without the product:
    ``reconstruct_class`` leaves out a zero factor, so its truncation is
    never read."""
    factor = memo.get(key)
    if factor is None:
        c, p, color = key[-1]
        factor = class_data[c][p][color]
        if len(key) > 1 and not factor.is_zero():
            prefix = _leg_factor(memo, key[:-1], class_data)
            factor = prefix if prefix.is_zero() else prefix * factor
        memo[key] = factor
    return factor


def _graph_terms(spec, graph, B, bound, shapes):
    """The terms of one graph with no leg psi, legs left out, generated as
    (extra codim, leg colors, DecoratedGraph, series).

    The leg colors are those of the legs' vertices, in label order; the
    series is 1/|Aut| * prod edge bivector entries * prod vertex k-sums, and
    times the leg components of the colors it is a term of the class.  The
    series depend only on the graph's shape: its isomorphism class as a
    graph with vertices labelled by (genus, marking count), and |Aut|.  The
    shape is read in its canonical vertex order from
    ``graphs._canonical_labeling``, given each vertex's marking count in
    place of its legs, whose first map takes the graph's vertices to the
    shape's.  ``shapes`` maps each shape met in one plan build to its
    leg-free terms (extra codim, coloring, edge psi, kappa, series) in that
    order, formed once (``_shape_terms``).  Each graph of the shape carries
    a term's coloring, kappa and edge psi back through the vertex map, an
    edge's psi pair flipped where the map reverses the edge, and adds its
    leg colors and one DecoratedGraph per (edge psi, kappa).
    """
    nmarks = tuple((len(graph.vertex_markings(v)),)
                   for v in range(graph.num_vertices))
    genera, marks, edges, coset = _canonical_labeling(graph.genera, nmarks,
                                                      graph.edges)
    shape = (genera, tuple(m for (m,) in marks), edges, graph.aut_order())
    terms = shapes.get(shape)
    if terms is None:
        terms = shapes[shape] = _shape_terms(spec, shape, B, bound)
    to_shape = coset[0]
    edge_map = []       # per graph edge: (shape edge, reversed by the map)
    free = {}
    for k, ends in enumerate(edges):
        free.setdefault(ends, []).append(k)
    for a, b in graph.edges:
        a, b = to_shape[a], to_shape[b]
        edge_map.append((free[min(a, b), max(a, b)].pop(), a > b))
    leg_vertex = [to_shape[v] for _, v in sorted(
        (label, v) for v, legs in enumerate(graph.legs) for label in legs)]
    decorated = {}      # (edge psi, kappa) -> DecoratedGraph
    for extra, coloring, edge_psi, kappa, series in terms:
        dg = decorated.get((edge_psi, kappa))
        if dg is None:
            dg = decorated[edge_psi, kappa] = DecoratedGraph(
                graph, None,
                [edge_psi[k][::-1] if flip else edge_psi[k]
                 for k, flip in edge_map],
                [kappa[w] for w in to_shape])
        yield extra, tuple(coloring[w] for w in leg_vertex), dg, series


def _shape_terms(spec, shape, B, bound):
    """The leg-free terms of a graph shape (genera, marking counts, edges,
    |Aut|, in the shape's vertex order) as a list of (extra codim, coloring,
    edge psi, kappa, series).

    A term is listed when its extra codim, that of the edge psi and kappa
    decoration, is at most ``bound - E``.  A vertex k-sum term of extra
    codim ``x`` is the same series at every budget of at least ``x``, so one
    term serves every leg psi assignment that leaves room for ``x``.  Only a
    coloring with a zero edge entry is left out: a term that vanishes to
    truncation still bounds the class coefficient it goes into.
    """
    genera, nmarks, edges, aut = shape
    E = len(edges)
    inv_aut = PuiseuxSeries.const(Fraction(1, aut), spec.param)
    p_values = sorted({p for p, q in B})
    q_values = sorted({q for p, q in B})
    terms = []
    for edge_assign in _bounded_assignments([p_values] * E + [q_values] * E,
                                            bound - E):
        edge_psi = tuple(zip(edge_assign[:E], edge_assign[E:]))
        mats = [B[pq] for pq in edge_psi]
        # per-vertex budgets are coupled only through rem
        edge_codim = sum(edge_assign)
        rem = bound - E - edge_codim
        for coloring in itertools.product(range(spec.dim), repeat=len(genera)):
            edge_entries = [mat.entries[coloring[a]][coloring[b]]
                            for mat, (a, b) in zip(mats, edges)]
            if any(e.is_zero() for e in edge_entries):
                continue
            factor = inv_aut
            for e in edge_entries:
                factor = factor * e
            # a cached k-sum may hold terms above rem: drop them before the
            # product over the vertices
            vertex_terms = [sorted(
                item for item in vertex_contributions(
                    spec, gv, m, color, rem).items() if item[0][0] <= rem)
                for gv, m, color in zip(genera, nmarks, coloring)]
            for combo in itertools.product(*vertex_terms):
                vertex_codim = sum(key[0] for key, _ in combo)
                if vertex_codim > rem:
                    continue
                coeff = factor
                for _, series in combo:
                    coeff = coeff * series
                terms.append((edge_codim + vertex_codim, coloring, edge_psi,
                              tuple(key[1] for key, _ in combo), coeff))
    return terms


# ---------------------------------------------------------------------------
# genus one


def genus_one_correlator(spec, flat_field):
    """The genus-one one-form evaluated on a flat field:

        dG(X) = (1/48) sum_i dlog(Delta_i)(X) + 1/2 sum_i r_ii du_i(X),

    where the r_ii are the negatives of the diagonal entries of the z^1-term
    of the flatness solution (they solve the rotation-coefficient equation
    dr_ii = (1/4) sum_j dlog(Delta_j)/du_i dlog(Delta_i)/du_j (du_j - du_i),
    which the tests verify).  The value equals the integral of the
    reconstructed (1,1)-class, checked on several charts.
    """
    frame = spec.frame
    exp = frame.expansion
    param = frame.param
    X = [PuiseuxSeries.const(c, param) for c in flat_field]
    du = frame.einv.apply(X)
    pairs = []
    for i in range(frame.dim):
        pairs.append((exp.derivative_along(frame.delta[i], X),
                      frame.delta_inv[i] * Fraction(1, 48)))
        pairs.append((spec.R[1].entries[i][i], du[i] * Fraction(-1, 2)))
    return PuiseuxSeries.sum_of_products(pairs, param)

