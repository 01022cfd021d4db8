"""Frobenius-manifold charts and their local analysis near the discriminant.

A chart is given by flat coordinates, a constant metric and a potential; the
product, trace form and discriminant follow.  A ``ChartExpansion`` re-expands
the chart along a declared one-parameter transversal to the discriminant
(flat coordinates become functions of the local parameter and background
symbols), and ``idempotent_frame`` computes idempotents, canonical
coordinates, norms and basis-change data as exact Puiseux series there.

Vector fields are lists of ``PuiseuxSeries`` components in the flat basis.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, lcm
from typing import NamedTuple

from .multipoly import MultiPoly, monomial_power, unit_roots
from .puiseux import PuiseuxSeries, SeriesMatrix, cofactor_det


class ChartError(ValueError):
    pass


class NonSemisimpleError(ChartError):
    pass


def _frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows, ncols):
    """Exact Gauss-Jordan on ``Fraction`` rows, pivoting in the first
    ``ncols`` columns (later columns ride along, as in an augmented matrix).

    Returns the reduced rows, pivot rows first, and the pivot columns.
    """
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        d = rows[r][col]
        rows[r] = [x / d for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return rows, pivots


def _mat_inv_rational(m):
    """Exact inverse of a rational matrix."""
    n = len(m)
    rows, pivots = rref([[Fraction(x) for x in m[i]] +
                         [Fraction(i == j) for j in range(n)]
                         for i in range(n)], n)
    if len(pivots) < n:
        raise ChartError("metric is singular")
    return [row[n:] for row in rows]


class FrobeniusChart:
    """Flat coordinates, constant metric, potential; checked on construction.

    ``expansion_point`` names the transversal ``charts.expand`` expands the
    chart along: a dict with ``param``, ``cover_degree`` and ``subs``
    (coordinate -> polynomial text), as in a chart file.
    """

    def __init__(self, coords, metric, potential, unit, name=None,
                 expansion_point=None):
        self.coords = list(coords)
        self.dim = len(self.coords)
        self.metric = _frac_matrix(metric)
        self.metric_inv = _mat_inv_rational(self.metric)
        self.potential = potential
        if isinstance(unit, int):
            vec = [Fraction(0)] * self.dim
            vec[unit] = Fraction(1)
            unit = vec
        self.unit = [Fraction(u) for u in unit]
        self.name = name or "chart"
        self.expansion_point = expansion_point
        # third derivatives A[mu][nu][lam] and structure constants C[mu][nu][k]
        d1 = [potential.derivative(c) for c in self.coords]
        d2 = [[d1[i].derivative(c) for c in self.coords] for i in range(self.dim)]
        self.A = [[[d2[i][j].derivative(c) for c in self.coords]
                   for j in range(self.dim)] for i in range(self.dim)]
        self.C = [[[sum((self.metric_inv[k][l] * self.A[i][j][l] for l in range(self.dim)),
                        MultiPoly())
                    for k in range(self.dim)]
                   for j in range(self.dim)] for i in range(self.dim)]
        self._check_axioms()

    def _check_axioms(self):
        n = self.dim
        # unit axiom: unit * e_nu = e_nu
        for nu in range(n):
            for k in range(n):
                val = sum((self.unit[mu] * self.C[mu][nu][k] for mu in range(n)),
                          MultiPoly())
                want = MultiPoly.const(1 if k == nu else 0)
                if val != want:
                    raise ChartError("unit axiom fails at (%d,%d)" % (nu, k))
        # WDVV associativity: (e_i e_j) e_k = e_i (e_j e_k)
        for i, j, k, b in itertools.product(range(n), repeat=4):
            lhs = sum((self.C[i][j][a] * self.C[a][k][b] for a in range(n)), MultiPoly())
            rhs = sum((self.C[j][k][a] * self.C[a][i][b] for a in range(n)), MultiPoly())
            if lhs != rhs:
                raise ChartError("WDVV fails at (%d,%d,%d,%d)" % (i, j, k, b))

    # -- polynomial-level operations ----------------------------------------

    def trace_form(self):
        """Gram matrix Tr(e_i * e_j) of the trace form, MultiPoly entries."""
        n = self.dim
        # tr(mult by e_k)
        tr = [sum((self.C[k][m][m] for m in range(n)), MultiPoly()) for k in range(n)]
        gram = [[sum((self.C[i][j][k] * tr[k] for k in range(n)), MultiPoly())
                 for j in range(n)] for i in range(n)]
        return gram

    def discriminant_poly(self):
        """det Tr(e_i e_j) as a MultiPoly in the flat coordinates."""
        return cofactor_det(self.trace_form())


# ---------------------------------------------------------------------------


class ChartExpansion:
    """A chart restricted to a transversal of the discriminant.

    ``subs`` sends each flat coordinate symbol to a MultiPoly in the local
    parameter and background symbols.  ``cover_degree`` records how many
    sheets the parameter covers over the base coordinate ``t_D`` transversal
    to the discriminant: orders along the discriminant are param-orders
    divided by ``cover_degree``.
    """

    def __init__(self, chart, param, subs, cover_degree=1, trunc=6):
        self.chart = chart
        self.param = param
        self.subs = dict(subs)
        self.cover_degree = Fraction(cover_degree)
        self.trunc = Fraction(trunc)
        missing = [c for c in chart.coords if c not in self.subs]
        if missing:
            raise ChartError("no substitution for coordinates %s" % missing)
        background = set()
        for val in self.subs.values():
            background |= val.variables()
        background.discard(param)
        self.background = sorted(background)
        self.vars = [param] + self.background  # chart variables
        self._C_series = None
        self._jacobian_inv = None

    def poly_series(self, poly):
        """Expand a MultiPoly in flat coordinates into a PuiseuxSeries,
        substituting every coordinate at once."""
        return PuiseuxSeries.from_poly(poly.substitute(self.subs), self.param)

    def structure_series(self):
        if self._C_series is None:
            n = self.chart.dim
            self._C_series = [[[self.poly_series(self.chart.C[i][j][k])
                                for k in range(n)] for j in range(n)] for i in range(n)]
        return self._C_series

    def unit_vector(self):
        return [PuiseuxSeries.const(u, self.param) for u in self.chart.unit]

    def product(self, x, y):
        """Quantum product of two flat-basis series vectors."""
        return self.mult_matrix_series(x).apply(y)

    def pairing(self, x, y):
        """Metric pairing of two flat-basis series vectors."""
        eta = self.chart.metric
        n = self.chart.dim
        return PuiseuxSeries.sum_of_products(
            [(x[i], y[j] * eta[i][j]) for i in range(n) for j in range(n)
             if eta[i][j]], self.param)

    def mult_matrix_series(self, vec):
        """Multiplication operator by a series vector, as a SeriesMatrix."""
        n = self.chart.dim
        C = self.structure_series()
        return SeriesMatrix([[PuiseuxSeries.sum_of_products(
            [(vec[mu], C[mu][nu][k]) for mu in range(n)], self.param)
            for nu in range(n)] for k in range(n)])

    def tD_order(self, series):
        """Order along the discriminant: param-order / cover_degree."""
        o = series.order()
        return None if o is None else o / self.cover_degree

    def jacobian(self):
        """J[mu][a] = d subs[t_mu] / d vars[a]: flat coordinates by chart variables."""
        return SeriesMatrix([[PuiseuxSeries.from_poly(self.subs[c].derivative(v), self.param)
                              for v in self.vars] for c in self.chart.coords])

    def derivative_along(self, series, direction):
        """Directional derivative of a series function by a flat-basis vector.

        ``direction`` is a series vector in the flat basis; the function is a
        series in (param, background).  Uses the chain rule through the
        substitution: the inverse Jacobian, computed once per expansion.
        """
        if self._jacobian_inv is None:
            n = self.chart.dim
            if len(self.vars) != n:
                raise ChartError("expansion is not a coordinate system (%d vars, dim %d)"
                                 % (len(self.vars), n))
            self._jacobian_inv = self.jacobian().inverse(trunc=self.trunc)
        chart_dir = self._jacobian_inv.apply(direction)  # components along vars
        partials = [series.derivative()] + [series.derivative_sym(v)
                                            for v in self.background]
        return PuiseuxSeries.sum_of_products(list(zip(partials, chart_dir)),
                                             self.param)


# ---------------------------------------------------------------------------
# Newton-Puiseux


def _poly_eval(coeffs, x):
    """Evaluate sum coeffs[i] X^i at a series x (Horner)."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _poly_derivative(coeffs):
    return [c * Fraction(i) for i, c in enumerate(coeffs) if i >= 1]


def _initial_roots(points, coeffs, param):
    """Roots of the Newton-polygon initial equations.

    Returns a list of (mu, a, multiplicity): initial term a * param**mu.
    ``points`` are (i, order) pairs for the nonzero coefficients.
    """
    pts = sorted(points)
    # lower convex hull
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    out = []
    for (i0, o0), (i1, o1) in zip(hull, hull[1:]):
        mu = Fraction(o0 - o1, i1 - i0)  # root order (slope is -mu)
        edge = [(i, coeffs[i].leading())
                for i, o in pts
                if i0 <= i <= i1 and o == o0 - (i - i0) * mu and not coeffs[i].is_zero()]
        for lead in (lc for _, lc in edge):
            if not lead.is_monomial():
                raise NonSemisimpleError(
                    "initial equation has non-monomial leading coefficient")
        # ansatz a = rho * M with M fixed by matching monomials
        i_lo = edge[0][0]
        k = edge[1][0] - i_lo
        if len(edge) == 2 and k in (1, 2, 4):
            # binomial: all k-th root branches of a monomial
            root = monomial_power((-edge[0][1]) * edge[1][1].inverse(), Fraction(1, k))
            candidates = [(u * root, 1) for u in unit_roots(k)]
        else:
            # monomial part M from the first pair, rational equation for rho
            M = monomial_power(edge[0][1] * edge[1][1].inverse(), Fraction(1, k))
            rat = []
            for i, lc in edge:
                coeff = lc * (M ** (i - i_lo))
                ratio2 = coeff * edge[0][1].inverse()
                if not ratio2.is_constant():
                    raise NonSemisimpleError("initial equation is not quasi-homogeneous")
                rat.append((i - i_lo, ratio2.constant_value()))
            degree = max(e for e, _ in rat)
            found = _rational_roots(dict(rat))
            total = sum(m for _, m in found)
            if total < degree:
                raise NonSemisimpleError(
                    "initial equation has no rational root basis (degree %d, found %d)"
                    % (degree, total))
            candidates = [(MultiPoly.const(r) * M, m) for r, m in found if r != 0]
        for a, mult in candidates:
            out.append((mu, a, mult))
    return out


def _divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _rational_roots(poly):
    """All rational roots with multiplicity of a Fraction-coefficient poly."""
    denom = lcm(*(c.denominator for c in poly.values()))
    ints = {e: int(c * denom) for e, c in poly.items() if c != 0}
    a0_e = min(ints)
    a0, an = ints[a0_e], ints[max(ints)]
    cands = set()
    for p in _divisors(a0):
        for q in _divisors(an):
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))
    if a0_e > 0:
        cands.add(Fraction(0))

    def eval_poly(p, x):
        return sum((c * x ** e for e, c in p.items()), Fraction(0))

    def deflate(p, x):
        maxdeg = max(p)
        out, carry = {}, Fraction(0)
        for e in range(maxdeg, 0, -1):
            carry = p.get(e, Fraction(0)) + carry
            out[e - 1] = carry
            carry = carry * x
        out = {e: c for e, c in out.items() if c != 0}
        return out

    found = []
    p = {e: Fraction(c) for e, c in poly.items() if c != 0}
    for cand in sorted(cands):
        mult = 0
        while p and max(p, default=0) > 0 and eval_poly(p, cand) == 0:
            p = deflate(p, cand)
            mult += 1
        if mult:
            found.append((cand, mult))
        if not p or max(p, default=0) == 0:
            break
    return found


def newton_puiseux_roots(coeffs, param, trunc):
    """All roots of a monic polynomial with PuiseuxSeries coefficients.

    ``coeffs[i]`` is the coefficient of X**i; ``coeffs[-1]`` must be 1.
    Roots are returned as PuiseuxSeries with truncation ``trunc``.  Raises
    NonSemisimpleError unless the roots are pairwise distinct to truncation.
    """
    roots = _puiseux_roots(coeffs, param, Fraction(trunc), 0)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if (roots[i] - roots[j]).is_zero():
                raise NonSemisimpleError(
                    "non-semisimple direction: coincident roots to truncation")
    return roots


def _puiseux_roots(coeffs, param, trunc, depth):
    """Roots of ``newton_puiseux_roots`` at recursion depth ``depth``."""
    d = len(coeffs) - 1
    if depth > 3 * d + 12:
        raise NonSemisimpleError("non-semisimple direction: branches do not separate")
    if d == 1:
        c0 = coeffs[0]
        if c0.is_zero():
            return [PuiseuxSeries.zero(param, trunc=trunc)]
        return [(-c0).truncate(trunc)]
    if coeffs[0].is_zero():
        rest = _puiseux_roots(coeffs[1:], param, trunc, depth + 1)
        return [PuiseuxSeries.zero(param, trunc=trunc)] + rest
    points = [(i, c.order()) for i, c in enumerate(coeffs) if not c.is_zero()]
    roots = []
    dcoeffs = _poly_derivative(coeffs)
    for mu, a, mult in _initial_roots(points, coeffs, param):
        x0 = PuiseuxSeries.unit(param, mu, a)
        if mult == 1:
            roots.append(_newton_refine(coeffs, dcoeffs, x0, param, trunc))
        else:
            shifted = _shift_poly(coeffs, x0)
            deeper = [y for y in _puiseux_roots(shifted, param, trunc, depth + 1)
                      if y.order() is None or y.order() > mu]
            if len(deeper) != mult:
                raise NonSemisimpleError(
                    "expected %d branches above order %s, found %d"
                    % (mult, mu, len(deeper)))
            for y in deeper:
                roots.append((x0 + y).truncate(trunc))
    if len(roots) != d:
        raise NonSemisimpleError(
            "found %d of %d root branches" % (len(roots), d))
    return roots


def _shift_poly(coeffs, x0):
    """Coefficients of p(x0 + Y): Y^j has sum_i c_i C(i, j) x0^(i - j)."""
    x0_pow = [PuiseuxSeries.const(1, x0.param)]
    for _ in range(len(coeffs) - 1):
        x0_pow.append(x0_pow[-1] * x0)
    return [PuiseuxSeries.sum_of_products(
        [(c * comb(i, j), x0_pow[i - j]) for i, c in enumerate(coeffs) if i >= j],
        x0.param) for j in range(len(coeffs))]


def _newton_refine(coeffs, dcoeffs, x0, param, trunc):
    """Quadratically converging refinement of a simple root."""
    y = x0
    dp0 = _poly_eval(dcoeffs, x0)
    o_dp = dp0.order()
    if o_dp is None:
        raise NonSemisimpleError("derivative vanishes at initial root")
    guard = 0
    while True:
        p_val = _poly_eval(coeffs, y).truncate(trunc + o_dp)
        if p_val.is_zero():
            break
        dp_val = _poly_eval(dcoeffs, y)
        # the correction must be known to trunc; a residual of negative
        # order (a root of negative order) needs the inverse that much further
        corr = p_val * dp_val.invert(trunc=trunc - min(0, p_val.order()))
        y = (y - corr).truncate(trunc)
        guard += 1
        if guard > 200:
            raise NonSemisimpleError("Newton refinement does not converge")
    return y.truncate(trunc)


# ---------------------------------------------------------------------------
# one-form integration


def integrate_oneform(components, param, background):
    """Primitive of an exact one-form given by (param, background) components.

    ``components[0]`` is the d(param)-component, the rest follow
    ``background``.  The primitive is normalized to have zero pure-constant
    term.  Raises if the form is not exact to the available truncation.
    """
    u = components[0].antiderivative()
    for idx, sym in enumerate(background):
        resid = components[idx + 1] - u.derivative_sym(sym)
        # the residue may only depend on later background symbols
        const_part = MultiPoly()
        for k, poly in resid.coeffs.items():
            if k != 0:
                raise ChartError("one-form is not exact (d%s component)" % sym)
            const_part = poly
        for later in background[:idx]:
            if later in const_part.variables():
                raise ChartError("one-form is not exact (ordering)")
        u = u + PuiseuxSeries.const(const_part.antiderivative(sym), param)
    return u


# ---------------------------------------------------------------------------
# idempotent frames


class IdempotentFrame:
    """Orthogonal idempotents, canonical coordinates and norms on a cover."""

    def __init__(self, expansion, eps, u, delta_inv, delta, sqrt_delta, psi,
                 einv, roots, du_chart):
        self.expansion = expansion
        self.dim = expansion.chart.dim
        self.vars = expansion.vars      # chart variables (param, background)
        self.eps = eps                  # idempotents, flat components
        self.u = u                      # canonical coordinates
        self.delta_inv = delta_inv      # eta(eps_i, eps_i)
        self.delta = delta
        self.sqrt_delta = sqrt_delta    # chosen branches
        self.psi = psi                  # normalized idempotents -> flat basis
        self.einv = einv                # rows: du_i in the flat basis
        self.roots = roots              # eigenvalues of the probe field
        self.du_chart = du_chart        # du_i along self.vars
        self._psi_inv = None
        self._connection = {}

    @property
    def param(self):
        return self.expansion.param

    def psi_inv(self):
        # Psi^T eta Psi = Id, hence Psi^{-1} = Psi^T eta
        if self._psi_inv is None:
            eta = SeriesMatrix([[PuiseuxSeries.const(x, self.param) for x in row]
                                for row in self.expansion.chart.metric])
            self._psi_inv = self.psi.transpose() * eta
        return self._psi_inv

    def psi_connection(self, a):
        """W_a = Psi^{-1} d_a Psi along chart variable ``self.vars[a]``."""
        if a not in self._connection:
            var = self.vars[a]
            dpsi = self.psi.map(lambda e: e.derivative_sym(var))
            self._connection[a] = self.psi_inv() * dpsi
        return self._connection[a]

    def to_normalized(self, vec):
        """Flat-basis series vector -> normalized-idempotent coordinates."""
        return self.psi_inv().apply(vec)

    def unit_normalized(self):
        """Coordinates of the unit field in the normalized basis: Delta^{-1/2}."""
        return [self.sqrt_delta[i].invert() for i in range(self.dim)]


def _sort_key(eps_vec):
    orders = tuple(e.order_or_trunc() for e in eps_vec)
    return (min(orders), orders, tuple(str(e) for e in eps_vec))


def idempotent_frame(expansion, probe=None):
    """Construct the idempotent frame of a chart expansion.

    ``probe`` is an optional rational vector in the flat basis whose
    multiplication operator must have pairwise distinct root expansions; by
    default small rational combinations of flat fields are searched.
    """
    n = expansion.chart.dim
    trunc = Fraction(expansion.trunc)
    if probe is not None:
        candidates = [tuple(probe)]
    else:
        # the unit vectors first, then the other nonzero vectors in [0, 3]^n
        candidates = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        candidates += [c for c in itertools.product(range(4), repeat=n)
                       if any(c) and c not in candidates]
    failures = []
    for cand in candidates:
        vec = [PuiseuxSeries.const(Fraction(c), expansion.param) for c in cand]
        M = expansion.mult_matrix_series(vec)
        char = _char_poly(M, expansion.param)
        try:
            roots = newton_puiseux_roots(char, expansion.param, trunc)
        except NonSemisimpleError as exc:
            failures.append((cand, str(exc)))
            continue
        return _frame_from_roots(expansion, M, roots, trunc)
    raise NonSemisimpleError(
        "no suitable probe field; tried %d candidates: %s"
        % (len(failures), failures[:4]))


def _char_poly(M, param):
    """Characteristic polynomial coefficients via Faddeev-LeVerrier."""
    n = M.rows
    coeffs = [None] * (n + 1)
    coeffs[n] = PuiseuxSeries.const(1, param)
    B = SeriesMatrix.identity(n, param)
    for k in range(1, n + 1):
        A = M * B
        tr = A.entries[0][0]
        for i in range(1, n):
            tr = tr + A.entries[i][i]
        c = tr * Fraction(-1, k)
        coeffs[n - k] = c
        B = A + SeriesMatrix.identity(n, param).scale(c)
    return coeffs


def _frame_from_roots(expansion, M, roots, trunc):
    n = expansion.chart.dim
    param = expansion.param
    ident = SeriesMatrix.identity(n, param)
    unit = expansion.unit_vector()
    eps = []
    for i in range(n):
        op = ident
        for j in range(n):
            if j == i:
                continue
            diff_inv = (roots[i] - roots[j]).invert(trunc=trunc)
            op = op * ((M - ident.scale(roots[j])).map(lambda e: e * diff_inv))
        eps.append([e.truncate(trunc) for e in op.apply(unit)])
    order = sorted(range(n), key=lambda i: _sort_key(eps[i]))
    eps = [eps[i] for i in order]
    # norms
    delta_inv = [expansion.pairing(eps[i], eps[i]) for i in range(n)]
    delta = [d.invert(trunc=trunc) for d in delta_inv]
    sqrt_delta = [d.sqrt(trunc=trunc) for d in delta]
    # canonical coordinates from the dual frame: the rows of E^{-1} are the
    # du_i in the flat basis, and E^{-1} J carries them to the chart variables
    einv = SeriesMatrix(eps).transpose().inverse(trunc=trunc)
    du_chart = (einv * expansion.jacobian()).entries
    u = [integrate_oneform(comp, param, expansion.background) for comp in du_chart]
    psi = SeriesMatrix([[eps[i][mu] * sqrt_delta[i] for i in range(n)]
                        for mu in range(n)])
    frame = IdempotentFrame(expansion, eps, u, delta_inv, delta, sqrt_delta, psi,
                            einv, roots, du_chart)
    verify_frame(frame)
    return frame


def _identity_defect(matrix):
    """The first (i, j) at which a square SeriesMatrix differs from Id, or None."""
    for i, row in enumerate(matrix.entries):
        for j, e in enumerate(row):
            if not (e - int(i == j)).is_zero():
                return i, j
    return None


def verify_frame(frame):
    """Exact-to-truncation checks of all frame invariants."""
    exp = frame.expansion
    n = frame.dim
    unit = exp.unit_vector()
    total = [PuiseuxSeries.zero(exp.param) for _ in range(n)]
    for i in range(n):
        prod = exp.product(frame.eps[i], frame.eps[i])
        for mu in range(n):
            if not (prod[mu] - frame.eps[i][mu]).is_zero():
                raise ChartError("idempotency fails for eps_%d" % i)
            total[mu] = total[mu] + frame.eps[i][mu]
        for j in range(i + 1, n):
            prod = exp.product(frame.eps[i], frame.eps[j])
            if any(not c.is_zero() for c in prod):
                raise ChartError("orthogonality fails for (%d,%d)" % (i, j))
            if not exp.pairing(frame.eps[i], frame.eps[j]).is_zero():
                raise ChartError("metric orthogonality fails for (%d,%d)" % (i, j))
    for mu in range(n):
        if not (total[mu] - unit[mu]).is_zero():
            raise ChartError("idempotents do not sum to the unit")
    # Lemma: no idempotent has positive order along the discriminant
    for i in range(n):
        o = min(e.order_or_trunc() for e in frame.eps[i])
        if o > 0:
            raise ChartError("idempotent %d has positive order" % i)
    # du_i(eps_j) = delta_ij
    bad = _identity_defect(frame.einv * SeriesMatrix(frame.eps).transpose())
    if bad:
        raise ChartError("dual-frame identity fails at (%d,%d)" % bad)
    # Psi^T eta Psi = Id
    bad = _identity_defect(frame.psi_inv() * frame.psi)
    if bad:
        raise ChartError("Psi^T eta Psi != Id at (%d,%d)" % bad)


def series_rational_power(series, exponent, trunc=None):
    """series**(p/q) through a q-th root and an integer power."""
    exponent = Fraction(exponent)
    return series.nth_root(exponent.denominator, trunc=trunc) ** exponent.numerator


# ---------------------------------------------------------------------------
# local structure probe (orders m, two singular idempotents, basis fields)


class LocalStructureReport(NamedTuple):
    m: Fraction
    singular: list              # the two non-extending idempotents
    u_diff_order: Fraction      # order of u_1 - u_2
    basis_orders: list          # orders of the structure-theorem fields


def local_structure_probe(frame):
    """Identify the two non-extending idempotents and the half-integer m."""
    exp = frame.expansion
    n = frame.dim
    orders = [min(e.order_or_trunc() for e in frame.eps[i]) / exp.cover_degree
              for i in range(n)]
    singular = [i for i in range(n) if orders[i] < 0]
    if len(singular) != 2:
        raise ChartError(
            "number of idempotents with negative order is %d, not 2" % len(singular))
    i1, i2 = singular
    diff = frame.u[i1] - frame.u[i2]
    o = exp.tD_order(diff)
    if o is None:
        raise NonSemisimpleError("u_1 - u_2 vanishes to truncation")
    m = o - 1
    if m <= 0 or (2 * m).denominator != 1:
        raise ChartError("order(u1 - u2) - 1 = %s is not a positive half-integer" % m)
    # idempotent orders must be -m for the singular pair
    for i in singular:
        if orders[i] != -m:
            raise ChartError("singular idempotent order %s != -m" % orders[i])
    # basis fields of the structure theorem extend holomorphically
    w = series_rational_power(diff, m / (m + 1), trunc=frame.eps[0][0].trunc)
    fields = []
    fields.append([w * (frame.eps[i1][mu] - frame.eps[i2][mu]) for mu in range(n)])
    fields.append([frame.eps[i1][mu] + frame.eps[i2][mu] for mu in range(n)])
    for i in range(n):
        if i not in singular:
            fields.append(frame.eps[i])
    basis_orders = [min(c.order_or_trunc() for c in f) / exp.cover_degree
                    for f in fields]
    if any(o < 0 for o in basis_orders):
        raise ChartError("structure-theorem basis fields fail to extend: %s"
                         % basis_orders)
    return LocalStructureReport(m, singular, o, basis_orders)


# ---------------------------------------------------------------------------
# the Psi_0 normal form at m = 1/2


class Psi0Frame:
    def __init__(self, frame, report, t, t0, sqrt_t, eta0, eta1, psi0, psi0_inv,
                 psi_tilde, dt_field, dt0_field, order, units):
        self.frame = frame
        self.report = report
        self.t = t
        self.t0 = t0
        self.sqrt_t = sqrt_t
        self.eta0 = eta0
        self.eta1 = eta1
        self.psi0 = psi0
        self.psi0_inv = psi0_inv
        self.psi_tilde = psi_tilde
        self.dt_field = dt_field
        self.dt0_field = dt0_field
        self.order = order  # idempotent indices in (singular pair, rest) order
        self.units = units  # induced-branch / frame-branch ratios, +-1

    def align(self, matrix):
        """Frame-ordered normalized-basis matrix -> induced-branch ordering.

        Permutes indices to (singular pair, rest) and conjugates by the
        diagonal of branch units.
        """
        n = len(self.order)
        return SeriesMatrix(
            [[matrix.entries[self.order[i]][self.order[j]]
              * (self.units[i] * self.units[j])
              for j in range(n)] for i in range(n)])

    def conjugated(self, matrix):
        """Psi0 M Psi0^{-1} for a normalized-basis matrix in frame ordering."""
        return self.psi0 * self.align(matrix) * self.psi0_inv

    def basis_matrix(self):
        """Columns dt0_field, dt_field, eps_{>=3} in the flat basis."""
        n = self.frame.dim
        cols = [self.dt0_field, self.dt_field]
        for i in self.order[2:]:
            cols.append(self.frame.eps[i])
        return SeriesMatrix([[cols[j][mu] for j in range(n)] for mu in range(n)])

    def lemma32_ac(self, trunc=None):
        """The series a, c with Psi'-upper block = eta1^(-1/2) [[a, tc], [c, a]].

        The branch of sqrt(eta1) is normalized so that a starts at 1.
        """
        frame = self.frame
        trunc = trunc if trunc is not None else frame.eps[0][0].trunc
        B = self.basis_matrix()
        ptp = B.inverse(trunc=trunc) * self.psi_tilde
        sq = self.eta1.sqrt(trunc=trunc)
        a = sq * ptp.entries[0][0]
        c = sq * ptp.entries[1][0]
        a0 = a.coefficient(0).constant_value()
        if a0 == -1:
            a, c = -a, -c
        return a, c, ptp


def psi0_frame(frame):
    """Coordinates (t, t0, u_{>=3}), eta_0, eta_1 and the matrices Psi_0, Psi-tilde."""
    exp = frame.expansion
    n = frame.dim
    report = local_structure_probe(frame)
    if report.m != Fraction(1, 2):
        raise ChartError("genus-one extendability fails: m = %s != 1/2" % report.m)
    i1, i2 = report.singular
    diff = frame.u[i1] - frame.u[i2]
    trunc = frame.eps[0][0].trunc
    w13 = series_rational_power(diff * Fraction(3, 4), Fraction(1, 3), trunc=trunc)
    sqrt_t = w13
    t = w13 * w13
    t0 = (frame.u[i1] + frame.u[i2]) * Fraction(1, 2)
    dt_field = [sqrt_t * (frame.eps[i1][mu] - frame.eps[i2][mu]) for mu in range(n)]
    dt0_field = [frame.eps[i1][mu] + frame.eps[i2][mu] for mu in range(n)]
    eta0 = exp.pairing(dt0_field, dt0_field)
    eta1 = exp.pairing(dt_field, dt0_field)
    # identity eta(dt, dt) = t * eta0
    if not (exp.pairing(dt_field, dt_field) - t * eta0).is_zero():
        raise ChartError("eta(dt,dt) != t*eta0")
    # Delta formulas of the eq:Psi0 normal form
    two_sqrt_t = sqrt_t * 2
    d1 = two_sqrt_t * (eta1 + sqrt_t * eta0).invert(trunc=trunc)
    d2 = (-two_sqrt_t) * (eta1 - sqrt_t * eta0).invert(trunc=trunc)
    if not (frame.delta[i1] - d1).is_zero() or not (frame.delta[i2] - d2).is_zero():
        raise ChartError("Delta normal-form identities fail")
    # Psi0: block diagonal, upper block from the chosen roots of +-2 sqrt(t)
    p = two_sqrt_t.sqrt(trunc=trunc)
    q = (-two_sqrt_t).sqrt(trunc=trunc)
    p_inv, q_inv = p.invert(trunc=trunc), q.invert(trunc=trunc)
    psi0 = _upper_block(sqrt_t * p_inv, -sqrt_t * q_inv, p_inv, q_inv, n)
    psi0_inv = _upper_block(p_inv, sqrt_t * p_inv, q_inv, -sqrt_t * q_inv, n)
    # the chosen roots induce branches of sqrt(Delta_1), sqrt(Delta_2); the
    # frame's independent choices may differ by a sign, which must be aligned
    # or the Psi0-cancellation fails
    order = [i1, i2] + [i for i in range(n) if i not in (i1, i2)]
    induced = [p * (eta1 + sqrt_t * eta0).sqrt(trunc=trunc).invert(trunc=trunc),
               q * (eta1 - sqrt_t * eta0).sqrt(trunc=trunc).invert(trunc=trunc)]
    units = []
    for pos, idx in enumerate(order):
        if pos < 2:
            ratio = induced[pos] * frame.sqrt_delta[idx].invert(trunc=trunc)
            const = ratio.coefficient(0).constant_value()
            if const not in (Fraction(1), Fraction(-1)) or not (ratio - const).is_zero():
                raise ChartError("branch alignment failed: ratio %s" % ratio)
            units.append(const)
        else:
            units.append(Fraction(1))
    psi_perm = SeriesMatrix(
        [[frame.psi.entries[mu][order[j]] * units[j] for j in range(n)]
         for mu in range(n)])
    psi_tilde = psi_perm * psi0_inv
    for row in psi_tilde.entries:
        for e in row:
            o = e.order()
            if o is not None and o < 0:
                raise ChartError("Psi-tilde entry has negative order %s" % o)
    return Psi0Frame(frame, report, t, t0, sqrt_t, eta0, eta1, psi0, psi0_inv,
                     psi_tilde, dt_field, dt0_field, order, units)


def _upper_block(a, b, c, d, n):
    """The n x n SeriesMatrix with upper 2 x 2 block [[a, b], [c, d]] and
    the identity on the other coordinates."""
    zero = PuiseuxSeries.zero(a.param)
    rows = [[zero] * n for _ in range(n)]
    rows[0][:2] = a, b
    rows[1][:2] = c, d
    for k in range(2, n):
        rows[k][k] = PuiseuxSeries.const(1, a.param)
    return SeriesMatrix(rows)
