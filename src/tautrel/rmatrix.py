"""R-matrices: flatness recursion, symplectic condition, 2d-family diagnostics.

The flatness equation for the endomorphism series R(z) in the basis of
normalized idempotents is, with W = Psi^{-1} dPsi for the basis change Psi
from normalized idempotents to the flat basis,

    [R(z), du] + z (dR(z) - R(z) W) = 0.

The orientation of the connection term (the basis-change matrix of the
equation acts on coordinate columns) is pinned by the explicit flat-basis
equations of the 2-dimensional family, by the relation between the diagonal
of R^1 and the genus-one potential, and by the reconstruction values of the
genus-one correlators; all three are exercised in the tests.

The recursion: off-diagonal entries of the next order are division by
du_k - du_j, diagonal entries are integrated along the chart, even-order
integration constants are pinned by the symplectic condition
R(z) R^t(-z) = Id and odd-order ones are free (default 0).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from typing import NamedTuple

from .frobenius import (ChartError, NonSemisimpleError, _rational_roots,
                        integer_row, integrate_oneform, rref)
from .multipoly import MultiPoly
from .puiseux import PuiseuxSeries, SeriesMatrix


class RMatrix:
    """Truncated z-series of matrices in the normalized-idempotent basis."""

    def __init__(self, frame, orders, constants):
        self.frame = frame
        self.orders = list(orders)      # orders[k] = coefficient of z^k
        self.K = len(orders) - 1
        self.constants = dict(constants)

    def __getitem__(self, k):
        return self.orders[k]

    def symplectic_defect(self, k):
        """z^k coefficient of R(z) R^t(-z) - Id."""
        n = self.frame.dim
        param = self.frame.param
        R = self.orders
        defect = SeriesMatrix([[PuiseuxSeries.sum_of_products(
            [(-a if (k - p) % 2 else a, b) for p in range(k + 1)
             for a, b in zip(R[p].entries[i], R[k - p].entries[j])], param)
            for j in range(n)] for i in range(n)])
        if k == 0:
            defect = defect - SeriesMatrix.identity(n, param)
        return defect

    def check_symplectic(self):
        for k in range(1, self.K + 1):
            if not self.symplectic_defect(k).is_zero():
                raise ChartError("symplectic condition fails at z^%d" % k)

    def flatness_residual(self, k, var_index):
        """[R^k, du]_a + (d_a R^{k-1} - R^{k-1} W_a) along chart variable a."""
        frame = self.frame
        n = frame.dim
        du = [frame.du_chart[i][var_index] for i in range(n)]
        Rk = self.orders[k]
        acc = SeriesMatrix([[Rk.entries[i][j] * (du[j] - du[i]) for j in range(n)]
                            for i in range(n)])
        prev = self.orders[k - 1]
        W = frame.psi_connection(var_index)
        var = frame.vars[var_index]
        dprev = prev.map(lambda e: e.derivative_sym(var))
        return acc + dprev - prev * W

    def check_flatness(self):
        for k in range(1, self.K + 1):
            for a in range(len(self.frame.vars)):
                if not self.flatness_residual(k, a).is_zero():
                    raise ChartError(
                        "flatness residual nonzero at z^%d, variable %s"
                        % (k, self.frame.vars[a]))

    def to_flat(self):
        """Orders of Psi R(z) Psi^{-1}, the flat-basis endomorphism series."""
        psi = self.frame.psi
        psi_inv = self.frame.psi_inv()
        return [psi * m * psi_inv for m in self.orders]


def solve_flatness(frame, K, constants=None):
    """Solve the flatness equation to order z^K with the given constants.

    ``constants`` maps (idempotent index, z-order) to a rational; only
    odd z-orders are free (default 0), even-order diagonal terms come from
    the symplectic condition.
    """
    if K < 1:
        raise ValueError("K >= 1 required")
    n = frame.dim
    param = frame.param
    constants = dict(constants or {})
    for i, k in constants:
        if not (0 <= i < n and k % 2 and 1 <= k <= K):
            raise ValueError("integration constant (%s, %s) is unused: it "
                             "needs an index below %d and an odd z-order "
                             "up to %d" % (i, k, n, K))
    orders = [SeriesMatrix.identity(n, param)]
    nvars = len(frame.vars)
    W = [frame.psi_connection(a) for a in range(nvars)]
    du = frame.du_chart
    # per pair i != j, the first chart variable a along which du_j - du_i
    # inverts, and that inverse, formed once for all z-orders
    solve_by = {}
    for i, j in permutations(range(n), 2):
        for a in range(nvars):
            diff = du[j][a] - du[i][a]
            if not diff.is_zero() and diff.leading().is_monomial():
                solve_by[i, j] = a, diff.invert()
                break
        else:
            raise NonSemisimpleError(
                "non-semisimple chart: du_%d - du_%d vanishes" % (j, i))
    for k in range(1, K + 1):
        prev = orders[-1]
        rhs = []  # rhs[a] = -(d_a R^{k-1} - R^{k-1} W_a)
        for a in range(nvars):
            var = frame.vars[a]
            dprev = prev.map(lambda e: e.derivative_sym(var))
            rhs.append(prev * W[a] - dprev)
        entries = [[None] * n for _ in range(n)]
        for (i, j), (a, inv) in solve_by.items():
            entries[i][j] = rhs[a].entries[i][j] * inv
        # diagonal
        if k % 2 == 0:
            # pinned by the symplectic condition:
            # 2 R^k_jj = -[sum_{p+q=k, p,q>=1} (-1)^q R^p (R^q)^t]_jj
            for j in range(n):
                entries[j][j] = PuiseuxSeries.sum_of_products(
                    [(-a if (k - p) % 2 else a, b) for p in range(1, k)
                     for a, b in zip(orders[p].entries[j],
                                     orders[k - p].entries[j])],
                    param) * Fraction(-1, 2)
        else:
            # integrate d R^k_jj = (R^k W_a)_jj over the chart; W_a is
            # antisymmetric, so the unknown R^k_jj has no share in it
            for j in range(n):
                comps = [PuiseuxSeries.sum_of_products(
                    [(entries[j][m], W[a].entries[m][j]) for m in range(n)
                     if m != j], param) for a in range(nvars)]
                prim = integrate_oneform(comps, param, frame.expansion.background)
                entries[j][j] = prim + Fraction(constants.get((j, k), 0))
        orders.append(SeriesMatrix(entries))
    R = RMatrix(frame, orders, constants)
    R.check_flatness()
    R.check_symplectic()
    return R


# ---------------------------------------------------------------------------
# the explicit 2-dimensional family (d/dt)^2 = f(t) d/dt0


class FamilyDiagnostics(NamedTuple):
    f: MultiPoly
    gamma_global: MultiPoly | None
    gamma_series: dict          # {center: PuiseuxSeries}
    certificate: str            # text of the existence analysis


def gamma_ode(f):
    """Coefficients (a, b, c) of the gamma equation a g' + b g + c = 0.

    This is 2 f gdot - fdot g + fddot/24 = 0, the f-cleared form of the
    z^2-part of the family flatness equation after c = gamma/f - 5 fdot/48f^2.
    """
    fd = f.derivative("t")
    fdd = fd.derivative("t")
    return 2 * f, -fd, fdd * Fraction(1, 24)


def _coeffs_in(poly, var):
    """{power of var: rational coefficient} of a polynomial in var alone."""
    if poly.variables() - {var}:
        raise ValueError("not a polynomial in %s: %s" % (var, poly))
    return {mono[0][1] if mono else 0: c for mono, c in poly.terms.items()}


def _solve_ode(a, b, c, ds, equations):
    """{d: y_d} of y = sum y_d t^d, d in ``ds``, whose a y' + b y + c has
    zero t^j coefficient, sum_d y_d (d a_{j-d+1} + b_{j-d}) + c_j, for each j
    in ``equations`` (None if none does).  ``a``, ``b``, ``c`` map powers to
    Fractions; pivots go in the order of ``ds``, free y_d are 0."""
    ds = list(ds)
    k = len(ds)
    pivots = rref(integer_row({i: d * a.get(j - d + 1, 0) + b.get(j - d, 0)
                               for i, d in enumerate(ds)} | {k: c.get(j, 0)})
                  for j in equations)
    if k in pivots:
        return None
    y = dict.fromkeys(ds, Fraction(0))
    for i, row in pivots.items():
        y[ds[i]] = -Fraction(row.get(k, 0), row[i])
    return y


def ode_series_solution(a, b, c, var, center, n_terms):
    """Power-series solution of a y' + b y + c = 0 at var = center.

    Returns the unique solution when the indicial structure pins it (center a
    simple root of ``a``); at an ordinary point the constant term defaults
    to 0 (the solve pivots from the top, leaving y_0 free).  Raises on
    resonance (no power-series solution) and at a multiple root of ``a``
    where ``b`` vanishes too.
    """
    if center:
        shift = MultiPoly.var(var) + MultiPoly.const(center)
        a, b, c = (poly.substitute({var: shift}) for poly in (a, b, c))
    a, b, c = (_coeffs_in(poly, var) for poly in (a, b, c))
    if not (a.get(0) or a.get(1) or b.get(0)):
        raise ChartError("center is a multiple root of the leading coefficient")
    y = _solve_ode(a, b, c, range(n_terms + 1, -1, -1), range(n_terms + 1))
    if y is None:
        raise ChartError("resonance: no power-series solution")
    coeffs = {k: MultiPoly.const(v) for k, v in y.items() if k <= n_terms and v != 0}
    return PuiseuxSeries(var, coeffs, 1, Fraction(n_terms + 1))


def rational_solution(a, b, c, var="t"):
    """Polynomial solution of a y' + b y + c = 0, or None with a certificate.

    For the family equations the indicial exponents at every root of ``a``
    are non-integral, so any solution meromorphic near the roots is in fact
    polynomial; absence of a polynomial solution certifies that no global
    meromorphic solution exists.  The solve pivots from the bottom, so the
    coefficients it leaves free, and sets to 0, are the top ones.
    """
    ca, cb, cc = (_coeffs_in(poly, var) for poly in (a, b, c))
    da, db, dc = (max(poly, default=0) for poly in (ca, cb, cc))
    # leading balance: coefficient of t^(d + max(da-1, db))
    top = max(da - 1, db)
    deg_bound = max(dc - top, 0)
    for d in range(0, dc + da + db + 3):
        lead = Fraction(0)
        if da - 1 == top:
            lead += ca.get(da, 0) * d
        if db == top:
            lead += cb.get(db, 0)
        if lead == 0:
            deg_bound = max(deg_bound, d)
    ds = range(deg_bound + 1)
    powers = sorted({i + d - 1 for i in ca for d in ds if d}
                    | {i + d for i in cb for d in ds} | set(cc))
    y = _solve_ode(ca, cb, cc, ds, powers)
    return None if y is None else MultiPoly({((var, d),): v for d, v in y.items()})


def solve_2d_family(f):
    """Gamma diagnostics of the 2d family: local series and global existence.

    The local series are taken to order 12 at the rational roots of f and
    at t = 1 when it is regular.
    """
    if f.is_zero():
        raise ValueError("f = 0 has no semisimple point")
    a, b, c = gamma_ode(f)
    poly = _coeffs_in(f, "t")
    centers = [root for root, _ in _rational_roots(poly)]
    if 1 not in centers:
        centers.append(Fraction(1))
    series = {}
    for center in centers:
        try:
            series[center] = ode_series_solution(a, b, c, "t", center, 12)
        except ChartError:
            series[center] = None
    gamma_poly = rational_solution(a, b, c)
    if gamma_poly is not None:
        certificate = "global polynomial solution gamma = %s" % gamma_poly
    else:
        certificate = ("no global meromorphic solution: integral-pole ansatz at the "
                       "roots of f and the polynomial degree bound are jointly "
                       "infeasible")
    return FamilyDiagnostics(f, gamma_poly, series, certificate)


# ---------------------------------------------------------------------------
# holomorphy of quotients R_1 R_2^{-1} in the Psi0-conjugated basis


class QuotientReport(NamedTuple):
    orders: dict            # z-order -> SeriesMatrix of the quotient
    min_orders: dict        # z-order -> matrix of entry t_D-orders
    residual_ok: bool

    def holomorphic(self):
        return all(o is None or o >= 0
                   for mat in self.min_orders.values() for row in mat for o in row)


def quotient_holomorphy(p1, R1, p2, R2):
    """Entry orders of R~1 R~2^{-1} per z-order, plus the mixed-equation residual.

    ``p1``, ``p2`` are Psi0Frame values over identified (t, t0, u_{>=3})
    coordinates; the identification requires equal t-series.
    """
    if p1.frame.dim != p2.frame.dim:
        raise ChartError("incompatible frames: dimensions differ")
    if not (p1.t - p2.t).is_zero():
        raise ChartError("incompatible frames: t-coordinates differ")
    K = min(R1.K, R2.K)
    tilde1 = [p1.conjugated(R1[k]) for k in range(K + 1)]
    tilde2 = [p2.conjugated(R2[k]) for k in range(K + 1)]
    n = p1.frame.dim
    param = p1.frame.param
    inv2 = [SeriesMatrix.identity(n, param)]
    for k in range(1, K + 1):
        acc = SeriesMatrix.zero(n, n, param)
        for j in range(1, k + 1):
            acc = acc + tilde2[j] * inv2[k - j]
        inv2.append(-acc)
    quotient = {}
    for k in range(K + 1):
        acc = SeriesMatrix.zero(n, n, param)
        for j in range(k + 1):
            acc = acc + tilde1[j] * inv2[k - j]
        quotient[k] = acc
    cover = p1.frame.expansion.cover_degree
    min_orders = {k: [[(None if e.order() is None else e.order() / cover)
                       for e in row] for row in quotient[k].entries]
                  for k in quotient}
    residual_ok = _mixed_residual_ok(p1, p2, tilde1, inv2, quotient, K)
    return QuotientReport(quotient, min_orders, residual_ok)


def _mixed_residual_ok(p1, p2, tilde1, inv2, quotient, K):
    """Check the combined flatness equation of the quotient R = R~1 R~2^{-1}:

        0 = [R, Du] + z (dR + [R, Gamma] - R~1 (Theta_1 - Theta_2) R~2^{-1})

    with Du = Psi0 du Psi0^{-1}, Gamma = (dPsi0) Psi0^{-1} and
    Theta_i = Psi0 W_i Psi0^{-1}; the differential is taken along the local
    parameter (our frames depend on background symbols only as constants).
    """
    frame1 = p1.frame
    param = frame1.param
    n = frame1.dim

    def conj_du(p):
        du = SeriesMatrix([[p.frame.du_chart[p.order[i]][0] if i == j
                            else PuiseuxSeries.zero(param)
                            for j in range(n)] for i in range(n)])
        return p.psi0 * du * p.psi0_inv

    Du = conj_du(p1)
    if not (Du - conj_du(p2)).is_zero():
        return False
    gamma = p1.psi0.map(lambda e: e.derivative()) * p1.psi0_inv
    theta = []
    for p in (p1, p2):
        W = p.frame.psi_connection(0)
        theta.append(p.psi0 * p.align(W) * p.psi0_inv)
    dtheta = theta[0] - theta[1]
    for k in range(K):
        Rk1 = quotient[k + 1]
        Rk = quotient[k]
        dRk = Rk.map(lambda e: e.derivative())
        mid = SeriesMatrix.zero(n, n, param)
        for a in range(k + 1):
            mid = mid + tilde1[a] * dtheta * inv2[k - a]
        resid = (Rk1 * Du - Du * Rk1
                 + dRk + Rk * gamma - gamma * Rk - mid)
        if not resid.is_zero():
            return False
    return True
