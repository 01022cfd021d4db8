"""Exact psi/kappa intersection numbers and integration of strata classes.

psi-correlators come from the Dijkgraaf-Verlinde-Verlinde form of the
Witten-Kontsevich theorem; the recursion is anchored at <tau_0^3>_0 = 1 and
<tau_1>_1 = 1/24 and memoized.  kappa-monomials are converted to
psi-correlators with extra markings by the signed set-partition formula, the
inverse of the forgetful pushforward with convention kappa_a = pi_*(psi^(a+1)).

The memo cache is a module-level dict.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from .graphs import (DecoratedGraph, StrataVector, _bounded_assignments,
                     _partitions, cell_basis, multiply_kappa, multiply_psi)

_PSI_CACHE = {}


def _dfact(m):
    """(2m+1)!! with the convention (-1)!! = 1."""
    out = 1
    k = 2 * m + 1
    while k > 1:
        out *= k
        k -= 2
    return out


def psi_integral(g, exponents):
    """Integral of psi_1^{a_1} ... psi_n^{a_n} over the (g, n) moduli space."""
    exps = tuple(sorted(int(a) for a in exponents))
    n = len(exps)
    if g < 0 or 2 * g - 2 + n <= 0:
        return Fraction(0)
    if any(a < 0 for a in exps):
        return Fraction(0)
    if sum(exps) != 3 * g - 3 + n:
        return Fraction(0)
    key = (g, exps)
    if key in _PSI_CACHE:
        return _PSI_CACHE[key]
    if g == 0 and n == 3:
        val = Fraction(1)
    elif g == 1 and n == 1:
        val = Fraction(1, 24)
    else:
        val = _dvv(g, exps)
    _PSI_CACHE[key] = val
    return val


def _dvv(g, exps):
    """DVV recursion applied to the largest exponent."""
    rest = list(exps[:-1])
    k1 = exps[-1]            # tau_{k+1} with k+1 = k1
    k = k1 - 1
    if k < 0:
        # all exponents zero: dimension forces (g, n) = (0, 3), a base case
        raise ValueError("DVV recursion reached all-zero exponents at "
                         "(g, n) = (%d, %d)" % (g, len(exps)))
    total = Fraction(0)
    for j in range(len(rest)):
        dj = rest[j]
        others = rest[:j] + rest[j + 1:]
        total += Fraction(_dfact(k + dj), _dfact(dj - 1)) * \
            psi_integral(g, others + [k + dj])
    half = Fraction(0)
    for a in range(0, k):
        b = k - 1 - a
        w = Fraction(_dfact(a) * _dfact(b))
        half += w * psi_integral(g - 1, rest + [a, b])
        for g1 in range(0, g + 1):
            g2 = g - g1
            for I in _subsets(len(rest)):
                setI = [rest[i] for i in I]
                setJ = [rest[i] for i in range(len(rest)) if i not in I]
                half += w * psi_integral(g1, setI + [a]) * psi_integral(g2, setJ + [b])
    total += half / 2
    return total / _dfact(k1)


def _subsets(n):
    for r in range(n + 1):
        for combo in itertools.combinations(range(n), r):
            yield set(combo)


def kappa_psi_integral(g, psi_exponents, kappa_indices):
    """Integral of a psi-kappa monomial over the (g, n) moduli space.

    Signed set-partition conversion, the inverse of the forgetful
    pushforward: each block B of a partition of the kappa indices adds one
    marking tau_{1 + sum(B)} with weight (-1)^(|B| - 1).  (The forward
    pushforward carries (|B| - 1)! per block; the two are an exp/log pair,
    which the round-trip tests check.)
    """
    kappas = list(kappa_indices)
    m = len(kappas)
    total = Fraction(0)
    for part in _set_partitions(m):
        coeff = Fraction((-1) ** (m - len(part)))
        extra = []
        for block in part:
            extra.append(1 + sum(kappas[i] for i in block))
        total += coeff * psi_integral(g, list(psi_exponents) + extra)
    return total


def _set_partitions(m):
    if m == 0:
        yield []
        return
    for rest in _set_partitions(m - 1):
        # element m-1 joins an existing block or starts a new one
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [m - 1]] + rest[i + 1:]
        yield rest + [[m - 1]]


def integrate_strata(vector):
    """Exact integral of a top-codimension StrataVector.

    Each basis element is a raw gluing pushforward, so its integral is the
    product of the per-vertex psi-kappa integrals (no automorphism factor).
    """
    dim = 3 * vector.g - 3 + vector.n
    total = None
    for dg, coeff in vector.terms.items():
        if dg.codim() != dim:
            raise ValueError("non-top-codimension term: codim %d != %d"
                             % (dg.codim(), dim))
        value = Fraction(1)
        graph = dg.graph
        for v in range(graph.num_vertices):
            exps = []
            for mk in graph.vertex_markings(v):
                if mk[0] == "leg":
                    exps.append(dg.leg_exponent(mk[1]))
                else:
                    exps.append(dg.edge_psi[mk[1]][mk[2]])
            value *= kappa_psi_integral(graph.genera[v], exps, dg.kappa[v])
        term = coeff * value
        total = term if total is None else total + term
    if total is None:
        return Fraction(0)
    return total


def integrate_against_monomial(vector, monomial):
    """Pair a StrataVector with a smooth psi-kappa monomial class.

    ``monomial`` is a smooth-vertex DecoratedGraph; psi-powers multiply onto
    the matching legs and each kappa distributes over vertices.  This is the
    partial pairing: products with classes supported on boundary strata are
    out of scope.
    """
    if monomial.graph.num_vertices != 1 or monomial.graph.edges:
        raise ValueError("partial pairing pairs against smooth monomials only")
    out = vector
    for leg, e in monomial.leg_psi:
        out = multiply_psi(out, leg, e)
    for a in monomial.kappa[0]:
        out = multiply_kappa(out, a)
    dim = 3 * vector.g - 3 + vector.n
    out = out.codim_part(dim)
    return integrate_strata(out)


def smooth_monomial_basis(g, n, codim):
    """Smooth-vertex decorated classes (psi-kappa monomials) of a codimension,
    as a tuple sorted by key, the order of ``graphs.cell_basis``.

    Built directly: a psi exponent per leg, times a kappa partition of the
    codim they leave."""
    if 2 * g - 2 + n <= 0:
        raise ValueError("(g, n) = (%d, %d) is unstable" % (g, n))
    classes = []
    for leg_psi in _bounded_assignments([range(codim + 1)] * n, codim):
        psi = dict(enumerate(leg_psi, start=1))
        for kappa in _partitions(codim - sum(leg_psi)):
            classes.append(DecoratedGraph.smooth(g, n, psi, kappa))
    return tuple(sorted(classes, key=DecoratedGraph.key))


@functools.lru_cache(maxsize=None)
def pairing_matrix(g, n, d):
    """Partial-pairing Gram matrix between codim d and codim (dim - d).

    Rows run over all decorated-graph generators of codimension d, in the
    order of ``graphs.cell_basis``, columns over the smooth
    psi-kappa monomials of complementary codimension.  Memoized, as tuples:
    the pairing check pairs every relation of a cell through it.
    """
    dim = 3 * g - 3 + n
    if d < 0 or d > dim:
        raise ValueError("codimension out of range")
    rows, _ = cell_basis((g, n, d))
    cols = smooth_monomial_basis(g, n, dim - d)
    matrix = tuple(
        tuple(integrate_against_monomial(StrataVector.single(r), c)
              for c in cols)
        for r in rows)
    return rows, cols, matrix
