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
                     enumerate_stable_graphs, forgetful_pushforward,
                     multiply_psi)
from .puiseux import PuiseuxSeries


class CohFTSpec:
    """Frame + R-matrix, with the graph-sum caches built on them."""

    def __init__(self, frame, R):
        self.frame = frame
        self.R = R
        self._leg_cache = []        # see leg_series
        self._leaf_cache = None     # see dilaton_leaf
        self._vertex_cache = {}     # see vertex_contributions
        self._weight_cache = {}     # see graph_weights

    @property
    def dim(self):
        return self.frame.dim

    @property
    def param(self):
        return self.frame.param

    def delta_power(self, i, m):
        """Delta_i^(m/2) as a series, for an integer m."""
        return self.frame.sqrt_delta[i] ** m


def leg_series(spec, vector_normalized, bound):
    """The leg insertion A(psi) v in normalized coordinates.

    Returns {psi power p: component list over colors}.  The components
    A[p] v are formed once per spec and vector: ``spec._leg_cache`` lists
    (vector, [A[p] v for every order p]), found by equality.
    """
    for v, comps in spec._leg_cache:
        if v == vector_normalized:
            break
    else:
        comps = [a.apply(vector_normalized) for a in spec.R.orders]
        spec._leg_cache.append((list(vector_normalized), comps))
    return {p: comps[p] for p in range(min(len(comps), bound + 1))}


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
    """
    cache = spec._vertex_cache
    key = (gv, nmark, color, budget)
    if key in cache:
        return cache[key]
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
    cache[key] = out
    return out


def to_normalized_insertion(frame, flat_vector):
    """Convert a flat vector (rationals or series) into normalized coords."""
    param = frame.param
    vec = [c if isinstance(c, PuiseuxSeries) else PuiseuxSeries.const(c, param)
           for c in flat_vector]
    return frame.to_normalized(vec)


def unit_insertions(frame):
    """The flat basis fields e_0, ..., e_{dim-1} as normalized insertions."""
    return [to_normalized_insertion(
        frame, [Fraction(int(k == mu)) for k in range(frame.dim)])
        for mu in range(frame.dim)]


def reconstruct_class(spec, g, n, insertions, codim_bound):
    """The reconstruction as a StrataVector with Puiseux-series coefficients.

    ``insertions`` is a list of normalized-coordinate vectors, one per
    marking; see ``to_normalized_insertion``.  A psi class on a leg is not an
    insertion: multiply the class by it with ``graphs.multiply_psi``, as
    ``dilaton_shift`` does.  The class is multilinear in the insertions: the
    leg-independent table of each graph is built once per spec
    (``graph_weights``), and only the leg components are formed here.

    A leg factor depends only on the multiset of (insertion class, psi
    power, color) of its legs, where legs with equal insertions share a
    class; it is keyed by that sorted tuple and formed once per call
    (``_leg_factor``).  For each leg-psi assignment, each group of a table,
    one per leg colors, gives one factor and the prefix of its terms that
    fits the budget the leg psi leave (``_prefix``); a zero factor leaves
    out the whole group.

    The (leg factor, weight) pairs are grouped by leg psi and decorated
    graph, and each coefficient is formed once, by
    ``PuiseuxSeries.sum_of_products``, with no series built per term; only
    then do the leg psi go on its decorated graph.  The coefficient is known
    below the least truncation of its products, so products that cancel
    still bound it; one that cancels completely is left out of the class.
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
    class_data = [leg_series(spec, v, bound) for v in distinct]
    leg_choices = [sorted(class_data[c]) for c in leg_class]
    memo = {(): PuiseuxSeries.const(1, spec.param)}
    groups = {}     # (leg psi, decorated graph) -> [(leg factor, weight)]
    for graph, table in graph_weights(spec, g, n, bound):
        budget = bound - len(graph.edges)
        for leg_psi in _bounded_assignments(leg_choices, budget):
            rem = budget - sum(leg_psi)
            for colors, terms in table.items():
                terms = _prefix(terms, rem)
                key = tuple(sorted(zip(leg_class, leg_psi, colors)))
                factor = _leg_factor(memo, key, class_data)
                if factor.is_zero():
                    continue
                for _, dg, weight in terms:
                    pairs = groups.get((leg_psi, dg))
                    if pairs is None:
                        groups[leg_psi, dg] = [(factor, weight)]
                    else:
                        pairs.append((factor, weight))
    out = StrataVector(g, n)
    for (leg_psi, dg), pairs in groups.items():
        coeff = PuiseuxSeries.sum_of_products(pairs, spec.param)
        if not coeff.is_zero():
            psi_by_label = dict(enumerate(leg_psi, start=1))
            out.terms[dg.with_leg_psi(psi_by_label)] = coeff
    return out


def _prefix(terms, rem):
    """The leading ``terms``, sorted by extra codim, of extra codim <= rem."""
    for i, (extra, _, _) in enumerate(terms):
        if extra > rem:
            return terms[:i]
    return terms


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


def graph_weights(spec, g, n, bound):
    """Leg-independent data of the graph sum of type (g, n), cached on the spec.

    Returns, per stable graph, (graph, table), the table formed once per
    spec by ``_graph_terms``.
    """
    cache = spec._weight_cache
    key = (g, n, bound)
    if key not in cache:
        B = edge_series(spec, bound)
        cache[key] = [(graph, _graph_terms(spec, graph, B, bound))
                      for graph in enumerate_stable_graphs(g, n, bound)]
    return cache[key]


def _graph_terms(spec, graph, B, bound):
    """The terms of one graph with no leg psi, legs left out, as one table.

    The table maps the colors of the legs' vertices, in label order, to a
    list of (extra codim, DecoratedGraph, series), sorted by extra codim
    with a stable sort, so that within a codim the terms keep the order of
    the sum.  The series is 1/|Aut| * prod edge bivector entries * prod
    vertex k-sums; times the leg components of the colors it is a term of
    the class.  The extra codim is that of the edge psi and kappa
    decoration, and a term is kept when it is at most ``bound - E``.  A
    vertex k-sum term of extra codim ``x`` is the same series at every
    budget of at least ``x``, so the terms of a leg psi assignment are the
    prefix of extra codim at most its budget, and the leg psi go on the
    decorated graph unchanged (``DecoratedGraph.with_leg_psi``).  Only a
    coloring with a zero edge entry is left out: a term that vanishes to
    truncation still bounds the class coefficient it goes into.
    """
    E = len(graph.edges)
    nv = graph.num_vertices
    nmarks = [len(graph.vertex_markings(v)) for v in range(nv)]
    leg_vertex = [v for _, v in sorted(
        (label, v) for v, legs in enumerate(graph.legs) for label in legs)]
    inv_aut = PuiseuxSeries.const(Fraction(1, graph.aut_order()), spec.param)
    budget = bound - E
    p_values = sorted({p for p, q in B})
    q_values = sorted({q for p, q in B})
    table = {}
    for edge_assign in _bounded_assignments([p_values] * E + [q_values] * E,
                                            budget):
        edge_psi = list(zip(edge_assign[:E], edge_assign[E:]))
        mats = [B[pq] for pq in edge_psi]
        # per-vertex budgets are coupled only through rem
        edge_codim = sum(edge_assign)
        rem = budget - edge_codim
        for coloring in itertools.product(range(spec.dim), repeat=nv):
            edge_entries = [mat.entries[coloring[a]][coloring[b]]
                            for mat, (a, b) in zip(mats, graph.edges)]
            if any(e.is_zero() for e in edge_entries):
                continue
            factor = inv_aut
            for e in edge_entries:
                factor = factor * e
            vertex_terms = [sorted(vertex_contributions(
                spec, graph.genera[v], nmarks[v], coloring[v], rem).items())
                for v in range(nv)]
            colors = tuple(coloring[v] for v in leg_vertex)
            for combo in itertools.product(*vertex_terms):
                vertex_codim = sum(key[0] for key, _ in combo)
                if vertex_codim > rem:
                    continue
                coeff = factor
                for _, series in combo:
                    coeff = coeff * series
                dg = DecoratedGraph(graph, None, edge_psi,
                                    [key[1] for key, _ in combo])
                table.setdefault(colors, []).append(
                    (edge_codim + vertex_codim, dg, coeff))
    for terms in table.values():
        terms.sort(key=lambda term: term[0])
    return table


# ---------------------------------------------------------------------------
# dilaton shift


def dilaton_shift(spec, g, n, insertions, codim_bound, v_flat, v_degree):
    """The shifted class: extra psi*v legs summed with 1/k!, pushed forward.

    ``v_flat`` is a flat vector with MultiPoly/series entries (typically
    formal symbols); the k-sum is truncated at ``v_degree`` extra legs.  The
    (g, n+k) class of the insertions and k copies of v is reconstructed to
    codim ``min(codim_bound, 3g-3+n)``, the bound of the result; each extra
    leg then takes its psi from ``graphs.multiply_psi``, which raises the
    codim by k, and the k forgetful pushforwards lower it by k again.
    """
    v = to_normalized_insertion(spec.frame, v_flat)
    bound = min(codim_bound, 3 * g - 3 + n)
    total = reconstruct_class(spec, g, n, insertions, bound)
    for k in range(1, v_degree + 1):
        cls = reconstruct_class(spec, g, n + k, insertions + [v] * k, bound)
        for label in range(n + 1, n + k + 1):
            cls = multiply_psi(cls, label)
        for _ in range(k):
            cls = forgetful_pushforward(cls)
        total = total + cls.scale(Fraction(1, factorial(k)))
    return total


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
    X = [c if isinstance(c, PuiseuxSeries) else PuiseuxSeries.const(c, param)
         for c in flat_field]
    du = frame.einv.apply(X)
    pairs = []
    for i in range(frame.dim):
        pairs.append((exp.derivative_along(frame.delta[i], X),
                      frame.delta_inv[i] * Fraction(1, 48)))
        pairs.append((spec.R[1].entries[i][i], du[i] * Fraction(-1, 2)))
    return PuiseuxSeries.sum_of_products(pairs, param)

