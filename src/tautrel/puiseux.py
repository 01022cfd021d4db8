"""Truncated Puiseux/Laurent series in one local parameter, and matrices.

A ``PuiseuxSeries`` holds exact coefficients on the exponent grid ``k / ram``
for integer ``k`` (negative exponents allowed) together with an explicit
``trunc``: exponents ``>= trunc`` are unknown.  Every operation propagates
the minimal trustworthy truncation; nothing ever silently extends precision.
``trunc = INF`` marks exact data such as polynomial input.

The coefficients are stored in one integer form: ``num`` maps each grid
index ``k`` to a map from monomial id to ``int`` numerator, over one
positive ``int`` denominator ``den`` shared by the whole series.  The form
is normalized: no zero numerators, gcd(den, numerators) == 1 and ``ram`` the
least index of the support, so equal series have equal forms.  Monomial ids
intern reduced ``MultiPoly`` monomials, and products of ids are memoized
with their integral relation factor, so arithmetic never touches a
``Fraction`` coefficient or hashes a ``Fraction`` exponent.  ``coeffs`` is
the derived view ``{k: MultiPoly}``.

The text form, used by golden tests, lists ``coeff*param^(p/q)`` terms sorted
by exponent and ends with ``+ O(param^T)`` when the truncation is finite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf as INF, lcm

from .multipoly import (ONE_MONOMIAL, MultiPoly, NonUnitError,
                        _reduce_monomial, monomial_power)


def _as_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.const(value)


# Interned reduced monomials: id -> monomial and monomial -> id, id 0 the
# constant monomial.  _PRODUCTS[i][j] memoizes (id of m_i * m_j, relation
# factor as an int), stored under both orders.  Ids are only ever appended, so an id stays valid for
# the life of the process; the tables grow with the distinct monomials a
# process meets, about a hundred on the paper's A3 chart.
_MONOS = [ONE_MONOMIAL]
_IDS = {ONE_MONOMIAL: 0}
_PRODUCTS = [{}]


def _intern(mono) -> int:
    i = _IDS.get(mono)
    if i is None:
        i = _IDS[mono] = len(_MONOS)
        _MONOS.append(mono)
        _PRODUCTS.append({})
    return i


def _product(i: int, j: int):
    """(id, int factor) of the product of monomials ``i`` and ``j``, memoized.

    Reduced exponents of ``@i`` and ``@r<p>`` lie below their relation's
    power, so a product wraps at most once per symbol and the factor is a
    product of -1 and primes; anything else is an error, not a rational.
    """
    mono, factor = _reduce_monomial(_MONOS[i] + _MONOS[j])
    if factor.denominator != 1:
        raise ArithmeticError("relation factor %s of %s * %s is not integral"
                              % (factor, _MONOS[i], _MONOS[j]))
    out = (_intern(mono), factor.numerator)
    _PRODUCTS[i][j] = _PRODUCTS[j][i] = out
    return out


def _poly(terms, den) -> MultiPoly:
    """The ``MultiPoly`` of one grid index: ``terms`` over ``den``."""
    out = MultiPoly.__new__(MultiPoly)
    out.terms = {_MONOS[i]: Fraction(c, den) for i, c in terms.items()}
    return out


def _series(param, ram, trunc, num, den):
    return PuiseuxSeries.__new__(PuiseuxSeries)._set(param, ram, trunc, num, den)


def _nonzero(sums):
    """``sums`` without zero numerators and without emptied indices."""
    num = {}
    for k, acc in sums.items():
        acc = {i: c for i, c in acc.items() if c}
        if acc:
            num[k] = acc
    return num


def _kcap(trunc, ram):
    """Least grid index ``k`` with ``k / ram >= trunc``, or INF."""
    if trunc is INF:
        return INF
    return -(-trunc.numerator * ram // trunc.denominator)


def _truncation(pairs, ram):
    """``(trunc, kcap)`` of a sum of products ``a * b`` over ``pairs``, read
    on the grid of ``ram``: the least of the products' truncations, and the
    least grid index ``kcap`` with ``kcap / ram >= trunc``.

    A product is known below ``min(a.trunc + ord b, b.trunc + ord a)``, where
    the order of a zero operand reads as its truncation.  Each candidate is
    kept as an unreduced ``x / y`` equal to ``trunc * ram`` and compared as
    integers; on the grid the order of a nonzero series is its least index
    carried over, so only the least truncation becomes a ``Fraction``.
    """
    x = y = None
    for a, b in pairs:
        for t, s in ((a.trunc, b), (b.trunc, a)):
            if t is INF:
                continue
            tn, d = t.numerator, t.denominator
            if s.num:
                n = tn * ram + min(s.num) * (ram // s.ram) * d
            elif s.trunc is INF:
                continue
            else:
                u = s.trunc
                n = (tn * u.denominator + u.numerator * d) * ram
                d *= u.denominator
            if x is None or n * y < x * d:
                x, y = n, d
    if x is None:
        return INF, INF
    return Fraction(x, y * ram), -(-x // y)


def _add_product(sums, a, fa, b, fb, kcap, scale):
    """Add ``scale`` times the product of the integer forms ``a`` and ``b``
    into ``sums``, read on a common grid through the factors ``fa``, ``fb``.

    Pairs with ``k1 + k2 >= kcap`` are skipped.  Numerators multiply through
    the memoized monomial products and sum straight into one map per output
    index.
    """
    products = _PRODUCTS
    for k1, t1 in a.items():
        k1 *= fa
        for k2, t2 in b.items():
            k = k1 + k2 * fb
            if k >= kcap:
                continue
            acc = sums.get(k)
            if acc is None:
                acc = sums[k] = {}
            for i1, c1 in t1.items():
                row = products[i1]
                c1 *= scale
                for i2, c2 in t2.items():
                    p = row.get(i2)
                    if p is None:
                        p = _product(i1, i2)
                    i, f = p
                    acc[i] = acc.get(i, 0) + c1 * c2 * f


class PuiseuxSeries:
    __slots__ = ("param", "ram", "trunc", "num", "den")

    def __init__(self, param, coeffs=None, ram=1, trunc=INF):
        if trunc is not INF:
            # one infinity object, so the kernel tests ``trunc is INF``
            trunc = INF if trunc == INF else Fraction(trunc)
        kcap = _kcap(trunc, ram)
        polys = {}
        den = 1
        if coeffs:
            for k, poly in coeffs.items():
                poly = _as_poly(poly)
                if not poly.terms or k >= kcap:
                    continue
                if param in poly.variables():
                    raise ValueError("coefficient contains the parameter %s" % param)
                polys[k] = poly.terms
                for c in poly.terms.values():
                    den = lcm(den, c.denominator)
        num = {k: {_intern(m): c.numerator * (den // c.denominator)
                   for m, c in terms.items()} for k, terms in polys.items()}
        self._set(param, ram, trunc, num, den)

    def _set(self, param, ram, trunc, num, den):
        """Store an integer form without zero numerators, normalized: ``ram``
        drops to the least index of the support and gcd(den, numerators) is
        divided out, in one pass each."""
        if not num:
            ram = den = 1
        else:
            g = gcd(ram, *num)
            if g > 1:
                num = {k // g: t for k, t in num.items()}
                ram //= g
            if den > 1:
                g = den
                for t in num.values():
                    g = gcd(g, *t.values())
                    if g == 1:
                        break
                else:
                    num = {k: {i: c // g for i, c in t.items()}
                           for k, t in num.items()}
                    den //= g
        self.param = param
        self.ram = ram
        self.trunc = trunc
        self.num = num
        self.den = den
        return self

    @property
    def coeffs(self):
        """The coefficients as ``{k: MultiPoly}``, built on each access."""
        return {k: _poly(t, self.den) for k, t in self.num.items()}

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(param, trunc=INF):
        return PuiseuxSeries(param, {}, 1, trunc)

    @staticmethod
    def const(value, param, trunc=INF):
        return PuiseuxSeries(param, {0: _as_poly(value)}, 1, trunc)

    @staticmethod
    def unit(param, exponent=1, coeff=1, trunc=INF):
        exponent = Fraction(exponent)
        return PuiseuxSeries(param, {exponent.numerator: _as_poly(coeff)},
                             exponent.denominator, trunc)

    @staticmethod
    def from_poly(poly, param, trunc=INF):
        """Split a MultiPoly into a series in ``param``."""
        poly = _as_poly(poly)
        ram = 1
        for mono in poly.terms:
            for sym, exp in mono:
                if sym == param:
                    ram = lcm(ram, exp.denominator)
        coeffs = {}
        for mono, coeff in poly.terms.items():
            exp = Fraction(0)
            rest = []
            for sym, e in mono:
                if sym == param:
                    exp = e
                else:
                    rest.append((sym, e))
            k = int(exp * ram)
            coeffs[k] = coeffs.get(k, MultiPoly()) + MultiPoly.monomial(coeff, rest)
        return PuiseuxSeries(param, coeffs, ram, trunc)

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        """Zero up to the stored truncation."""
        return not self.num

    def order(self):
        """Least exponent with nonzero coefficient, or None if zero to trunc."""
        if not self.num:
            return None
        return Fraction(min(self.num), self.ram)

    def order_or_trunc(self):
        o = self.order()
        return self.trunc if o is None else o

    def coefficient(self, exponent) -> MultiPoly:
        exponent = Fraction(exponent)
        if exponent >= self.trunc:
            raise ValueError("exponent %s beyond truncation %s" % (exponent, self.trunc))
        k = exponent * self.ram
        if k.denominator != 1:
            return MultiPoly()
        return _poly(self.num.get(int(k), {}), self.den)

    def support(self):
        return sorted(Fraction(k, self.ram) for k in self.num)

    def leading(self) -> MultiPoly:
        """The coefficient of the least exponent; the series must be nonzero."""
        return _poly(self.num[min(self.num)], self.den)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _coerce(value, param):
        if isinstance(value, PuiseuxSeries):
            return value
        return PuiseuxSeries.const(_as_poly(value), param)

    def truncate(self, trunc):
        trunc = min(self.trunc, Fraction(trunc) if trunc != INF else INF)
        kcap = _kcap(trunc, self.ram)
        return _series(self.param, self.ram, trunc,
                       {k: t for k, t in self.num.items() if k < kcap},
                       self.den)

    def _scaled(self, c):
        """Product with a rational ``c``: same support and truncation."""
        if not c:
            return PuiseuxSeries.zero(self.param)
        c = Fraction(c)
        n = c.numerator
        return _series(self.param, self.ram, self.trunc,
                       {k: {i: v * n for i, v in t.items()}
                        for k, t in self.num.items()},
                       self.den * c.denominator)

    # -- arithmetic -------------------------------------------------------------

    def _add(self, other, sign):
        """``self + sign * other`` on the common grid and the lcm of the two
        denominators, truncated at the lesser truncation."""
        other = PuiseuxSeries._coerce(other, self.param)
        if other.param != self.param:
            raise ValueError("parameter mismatch: %s vs %s"
                             % (self.param, other.param))
        ram = lcm(self.ram, other.ram)
        fa, fb = ram // self.ram, ram // other.ram
        den = lcm(self.den, other.den)
        ma, mb = den // self.den, sign * (den // other.den)
        trunc = min(self.trunc, other.trunc)
        kcap = _kcap(trunc, ram)
        sums = {}
        for k, t in self.num.items():
            k *= fa
            if k < kcap:
                sums[k] = {i: c * ma for i, c in t.items()}
        for k, t in other.num.items():
            k *= fb
            if k >= kcap:
                continue
            acc = sums.get(k)
            if acc is None:
                sums[k] = {i: c * mb for i, c in t.items()}
            else:
                for i, c in t.items():
                    acc[i] = acc.get(i, 0) + c * mb
        return _series(self.param, ram, trunc, _nonzero(sums), den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.param, self.ram, self.trunc,
                       {k: {i: -c for i, c in t.items()}
                        for k, t in self.num.items()}, self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product, known below ``min(a.trunc + ord b, b.trunc + ord a)``: the
        one-pair case of ``sum_of_products``.  A rational factor keeps the
        support and truncation (``_scaled``)."""
        if not isinstance(other, PuiseuxSeries):
            if isinstance(other, (int, Fraction)):
                return self._scaled(other)
            other = PuiseuxSeries._coerce(other, self.param)
        return PuiseuxSeries.sum_of_products(((self, other),), self.param)

    __rmul__ = __mul__

    @staticmethod
    def sum_of_products(pairs, param):
        """The sum of ``a * b`` over the (a, b) in ``pairs``, formed at once.

        Every product is read on one grid ``k / ram``, ``ram`` the lcm of all
        operand ``ram``s, and over one denominator, the lcm of the
        ``a.den * b.den``.  There the truncation becomes the integer cap
        ``kcap = ceil(trunc * ram)``: for integer ``k``, ``k / ram >= trunc``
        holds exactly when ``k >= kcap``, so pairs of indices with
        ``k1 + k2 >= kcap`` are skipped without building a ``Fraction``.  The
        numerators of every pair go straight into one map per output index,
        and the result is normalized once.  Its truncation is the least of
        the products' truncations, each ``min(a.trunc + ord b, b.trunc +
        ord a)`` with the order of a zero operand read as its truncation,
        compared as integers (``_truncation``): a zero operand keeps its
        truncation, and a sum of products that cancel still carries theirs.
        """
        ram = den = 1
        for a, b in pairs:
            if a.param != param or b.param != param:
                raise ValueError("parameter mismatch: %s vs %s" % (
                    a.param if a.param != param else b.param, param))
            ram = lcm(ram, a.ram, b.ram)
            den = lcm(den, a.den * b.den)
        trunc, kcap = _truncation(pairs, ram)
        sums = {}
        for a, b in pairs:
            _add_product(sums, a.num, ram // a.ram, b.num, ram // b.ram, kcap,
                         den // (a.den * b.den))
        return _series(param, ram, trunc, _nonzero(sums), den)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(Fraction(1) / Fraction(other))
        if isinstance(other, MultiPoly):
            return self * other.inverse()
        if isinstance(other, PuiseuxSeries):
            return self * other.invert()
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        result = PuiseuxSeries.const(1, self.param)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, PuiseuxSeries):
            other = PuiseuxSeries._coerce(other, self.param)
        return (self.param == other.param and self.ram == other.ram
                and self.den == other.den and self.num == other.num
                and self.trunc == other.trunc)

    def invert(self, trunc=None):
        """Multiplicative inverse; the leading coefficient must be a unit."""
        o = self.order()
        if o is None:
            raise ZeroDivisionError("inversion of a series that is zero to truncation")
        lead = self.leading()
        if not lead.is_monomial():
            raise NonUnitError("non-unit leading term: %s" % lead)
        if self.trunc == INF and len(self.num) == 1:
            out = PuiseuxSeries.unit(self.param, -o, lead.inverse())
            return out if trunc is None else out.truncate(trunc)
        if self.trunc == INF:
            if trunc is None:
                raise ValueError("inversion of exact non-monomial series needs a target truncation")
            t_res = Fraction(trunc)
        else:
            t_res = self.trunc - 2 * o
            if trunc is not None:
                t_res = min(t_res, Fraction(trunc))
        t_x = t_res + o
        # v = self * mono_inv has leading term 1; Newton x -> x(2 - vx) for 1/v
        mono_inv = PuiseuxSeries.unit(self.param, -o, lead.inverse())
        v = (self * mono_inv).truncate(t_x)
        x = PuiseuxSeries.const(1, self.param, trunc=t_x)
        while True:
            resid = (v * x - 1).truncate(t_x)
            if resid.is_zero():
                break
            x = (x * (2 - v * x)).truncate(t_x)
        return x * mono_inv

    def nth_root(self, n: int, trunc=None):
        """A branch of the n-th root; ramification extends as needed."""
        o = self.order()
        if o is None:
            raise ValueError("root of a series that is zero to truncation")
        lead = self.leading()
        if not lead.is_monomial():
            raise NonUnitError("non-unit leading term: %s" % lead)
        root_exp = o / n
        lead_root = monomial_power(lead, Fraction(1, n))
        mono = PuiseuxSeries.unit(self.param, root_exp, lead_root)
        if len(self.num) == 1 and self.trunc == INF:
            return mono if trunc is None else mono.truncate(trunc)
        if self.trunc == INF:
            if trunc is None:
                raise ValueError("root of exact non-monomial series needs a target truncation")
            t_res = Fraction(trunc)
        else:
            # self known below T: root known below T - o + o/n
            t_res = self.trunc - o + root_exp
            if trunc is not None:
                t_res = min(t_res, Fraction(trunc))
        t_resid = t_res + (n - 1) * root_exp
        known = self.truncate(t_resid)
        y = mono.truncate(t_res)
        inv_n = Fraction(1, n)
        while True:
            resid = (known - y ** n).truncate(t_resid)
            if resid.is_zero():
                break
            corr = resid * (y ** (n - 1)).invert(trunc=t_res - o + root_exp) * inv_n
            y = (y + corr).truncate(t_res)
        return y

    def sqrt(self, trunc=None):
        return self.nth_root(2, trunc=trunc)

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        """d/d(param)."""
        ram = self.ram
        num = {k - ram: {i: c * k for i, c in t.items()}
               for k, t in self.num.items() if k}
        trunc = self.trunc if self.trunc == INF else self.trunc - 1
        return _series(self.param, ram, trunc, num, self.den * ram)

    def derivative_sym(self, symbol):
        """Coefficient-wise derivative with respect to a background symbol."""
        if symbol == self.param:
            return self.derivative()
        coeffs = {k: v.derivative(symbol) for k, v in self.coeffs.items()}
        return PuiseuxSeries(self.param, coeffs, self.ram, self.trunc)

    def antiderivative(self):
        """Antiderivative in param with zero constant term."""
        coeffs = {}
        for k, v in self.coeffs.items():
            if k == -self.ram:
                raise ArithmeticError("antiderivative produces a log term")
            coeffs[k + self.ram] = v / (Fraction(k, self.ram) + 1)
        trunc = self.trunc if self.trunc == INF else self.trunc + 1
        return PuiseuxSeries(self.param, coeffs, self.ram, trunc)

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        parts = []
        coeffs = self.coeffs
        for k in sorted(coeffs):
            exp = Fraction(k, self.ram)
            coeff = coeffs[k]
            cs = str(coeff)
            if len(coeff.terms) > 1:
                cs = "(%s)" % cs
            if exp == 0:
                parts.append(cs)
            else:
                base = "%s^%s" % (self.param, MultiPoly._fmt_exp(exp))
                parts.append(base if cs == "1" else "%s*%s" % (cs, base))
        if self.trunc != INF:
            parts.append("O(%s^%s)" % (self.param,
                                       MultiPoly._fmt_exp(self.trunc)))
        if not parts:
            return "0"
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


# ---------------------------------------------------------------------------
# matrices over PuiseuxSeries


def cofactor_det(rows):
    """Determinant of a nonempty square list of rows by cofactor expansion
    along the first row; the entries may come from any commutative ring."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for j, entry in enumerate(rows[0]):
        term = entry * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]])
        if j % 2:
            term = -term
        acc = term if acc is None else acc + term
    return acc


class SeriesMatrix:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        self.entries = [list(row) for row in entries]
        self.rows = len(self.entries)
        self.cols = len(self.entries[0]) if self.entries else 0
        for row in self.entries:
            if len(row) != self.cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def identity(n, param):
        return SeriesMatrix([[PuiseuxSeries.const(1 if i == j else 0, param)
                              for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows, cols, param):
        return SeriesMatrix([[PuiseuxSeries.zero(param) for _ in range(cols)]
                             for _ in range(rows)])

    def map(self, fn):
        return SeriesMatrix([[fn(e) for e in row] for row in self.entries])

    def __add__(self, other):
        return SeriesMatrix([[a + b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return SeriesMatrix([[a - b for a, b in zip(r1, r2)]
                             for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return self.map(lambda e: -e)

    def scale(self, s):
        return self.map(lambda e: e * s)

    def __mul__(self, other):
        if isinstance(other, SeriesMatrix):
            if self.cols != other.rows:
                raise ValueError("dimension mismatch")
            param = self.entries[0][0].param
            cols = list(zip(*other.entries))
            return SeriesMatrix([[PuiseuxSeries.sum_of_products(
                list(zip(row, col)), param) for col in cols]
                for row in self.entries])
        return self.scale(other)

    def apply(self, vector):
        """Matrix times a list of series."""
        param = self.entries[0][0].param
        return [PuiseuxSeries.sum_of_products(
            list(zip(row, vector, strict=True)), param)
                for row in self.entries]

    def transpose(self):
        return SeriesMatrix([[self.entries[i][j] for i in range(self.rows)]
                             for j in range(self.cols)])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        return cofactor_det(self.entries)

    def adjugate(self):
        n = self.rows
        if n == 1:
            return SeriesMatrix([[PuiseuxSeries.const(1, self.entries[0][0].param)]])
        cof = [[None] * n for _ in range(n)]
        for i in range(n):
            rows = [r for k, r in enumerate(self.entries) if k != i]
            for j in range(n):
                c = cofactor_det([row[:j] + row[j + 1:] for row in rows])
                cof[j][i] = -c if (i + j) % 2 else c
        return SeriesMatrix(cof)

    def inverse(self, trunc=None):
        d = self.det()
        if d.is_zero():
            raise NonUnitError(
                "singular to truncation: det vanishes below order %s" % d.trunc)
        dinv = d.invert(trunc=trunc)
        return self.adjugate().map(lambda e: e * dinv)

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def __str__(self):
        return "[" + ";\n ".join(", ".join(str(e) for e in row) for row in self.entries) + "]"

    __repr__ = __str__
