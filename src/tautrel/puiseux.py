"""Truncated Puiseux/Laurent series in one local parameter, and matrices.

A ``PuiseuxSeries`` stores exact ``MultiPoly`` coefficients on the exponent
grid ``k / ram`` for integer ``k`` (negative exponents allowed) together with
an explicit ``trunc``: exponents ``>= trunc`` are unknown.  Every operation
propagates the minimal trustworthy truncation; nothing ever silently extends
precision.  ``trunc = INF`` marks exact data such as polynomial input.

The text form, used by golden tests, lists ``coeff*param^(p/q)`` terms sorted
by exponent and ends with ``+ O(param^T)`` when the truncation is finite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf as INF

from .multipoly import (MultiPoly, NonUnitError, _add_product, _from_terms,
                        monomial_power)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _as_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.const(value)


class PuiseuxSeries:
    __slots__ = ("param", "ram", "coeffs", "trunc")

    def __init__(self, param, coeffs=None, ram=1, trunc=INF):
        self.param = param
        if isinstance(trunc, (int, Fraction)):
            trunc = Fraction(trunc)
        clean = {}
        if coeffs:
            for k, poly in coeffs.items():
                poly = _as_poly(poly)
                if poly.is_zero():
                    continue
                if Fraction(k, ram) >= trunc:
                    continue
                if param is not None and param in poly.variables():
                    raise ValueError("coefficient contains the parameter %s" % param)
                clean[k] = clean.get(k, MultiPoly()) + poly if k in clean else poly
        # minimal ramification for the stored support
        g = ram
        for k in clean:
            g = gcd(g, abs(k))
        if clean and g > 1:
            clean = {k // g: v for k, v in clean.items()}
            ram //= g
        elif not clean:
            ram = 1
        self.ram = ram
        self.coeffs = clean
        self.trunc = trunc

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(param=None, trunc=INF):
        return PuiseuxSeries(param, {}, 1, trunc)

    @staticmethod
    def const(value, param=None, trunc=INF):
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
                    ram = _lcm(ram, exp.denominator)
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
        return not self.coeffs

    def order(self):
        """Least exponent with nonzero coefficient, or None if zero to trunc."""
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.ram)

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
        return self.coeffs.get(int(k), MultiPoly())

    def support(self):
        return sorted(Fraction(k, self.ram) for k in self.coeffs)

    # -- helpers ---------------------------------------------------------------

    def _join_param(self, other):
        if self.param is None:
            return other.param
        if other.param is None or other.param == self.param:
            return self.param
        raise ValueError("parameter mismatch: %s vs %s" % (self.param, other.param))

    @staticmethod
    def _coerce(value, param=None):
        if isinstance(value, PuiseuxSeries):
            return value
        return PuiseuxSeries.const(_as_poly(value), param)

    def rescale(self, ram):
        """Re-key to a ramification index that is a multiple of the current."""
        assert ram % self.ram == 0
        f = ram // self.ram
        out = PuiseuxSeries.__new__(PuiseuxSeries)
        out.param = self.param
        out.ram = ram
        out.coeffs = {k * f: v for k, v in self.coeffs.items()}
        out.trunc = self.trunc
        return out

    def truncate(self, trunc):
        trunc = min(self.trunc, Fraction(trunc) if trunc != INF else INF)
        return PuiseuxSeries(self.param, self.coeffs, self.ram, trunc)

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other):
        other = PuiseuxSeries._coerce(other, self.param)
        param = self._join_param(other)
        ram = _lcm(self.ram, other.ram)
        a, b = self.rescale(ram), other.rescale(ram)
        coeffs = dict(a.coeffs)
        for k, v in b.coeffs.items():
            coeffs[k] = coeffs.get(k, MultiPoly()) + v
        return PuiseuxSeries(param, coeffs, ram, min(a.trunc, b.trunc))

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries(self.param, {k: -v for k, v in self.coeffs.items()},
                             self.ram, self.trunc)

    def __sub__(self, other):
        return self + (-PuiseuxSeries._coerce(other, self.param))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product, known below ``min(a.trunc + ord b, b.trunc + ord a)``.

        Both operands are read on the common grid ``k / ram``, ``ram`` the
        lcm of theirs.  There the truncation becomes the integer cap
        ``kcap = ceil(trunc * ram)``: for integer ``k``, ``k / ram >= trunc``
        holds exactly when ``k >= kcap``, so pairs with ``k1 + k2 >= kcap``
        are skipped without building a ``Fraction``.  Coefficient products
        are summed straight into one term map per output exponent.
        """
        other = PuiseuxSeries._coerce(other, self.param)
        param = self._join_param(other)
        for s in (self, other):
            if s.param is None and param is not None and any(
                    param in v.variables() for v in s.coeffs.values()):
                raise ValueError("coefficient contains the parameter %s" % param)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            # ord of a zero operand reads as its truncation
            return PuiseuxSeries.zero(
                param, self.order_or_trunc() + other.order_or_trunc())
        ram = _lcm(self.ram, other.ram)
        fa, fb = ram // self.ram, ram // other.ram
        # trunc * ram = min(a.trunc * ram + kb, b.trunc * ram + ka) with ka,
        # kb the least grid indices, kept as an unreduced x / y
        x = y = None
        for t, k in ((self.trunc, min(b) * fb), (other.trunc, min(a) * fa)):
            if t != INF:
                n, d = t.numerator * ram + k * t.denominator, t.denominator
                if x is None or n * y < x * d:
                    x, y = n, d
        if x is None:
            trunc = kcap = INF
        else:
            trunc, kcap = Fraction(x, y * ram), -(-x // y)
        sums = {}
        for k1, v1 in a.items():
            k1 *= fa
            for k2, v2 in b.items():
                k = k1 + k2 * fb
                if k >= kcap:
                    continue
                terms = sums.get(k)
                if terms is None:
                    terms = sums[k] = {}
                _add_product(terms, v1.terms, v2.terms)
        coeffs = {}
        g = ram
        for k, terms in sums.items():
            poly = _from_terms(terms)
            if poly.terms:
                coeffs[k] = poly
                g = gcd(g, k)
        if not coeffs:
            ram = 1
        elif g > 1:
            coeffs = {k // g: v for k, v in coeffs.items()}
            ram //= g
        out = PuiseuxSeries.__new__(PuiseuxSeries)
        out.param = param
        out.ram = ram
        out.coeffs = coeffs
        out.trunc = trunc
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * _as_poly(Fraction(1) / Fraction(other))
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
        if self.param is not None and other.param is not None and self.param != other.param:
            return False
        return (self.ram == other.ram and self.coeffs == other.coeffs
                and self.trunc == other.trunc)

    def invert(self, trunc=None):
        """Multiplicative inverse; the leading coefficient must be a unit."""
        o = self.order()
        if o is None:
            raise ZeroDivisionError("inversion of a series that is zero to truncation")
        lead = self.coeffs[min(self.coeffs)]
        if not lead.is_monomial():
            raise NonUnitError("non-unit leading term: %s" % lead)
        if self.trunc == INF and len(self.coeffs) == 1:
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
        lead = self.coeffs[min(self.coeffs)]
        if not lead.is_monomial():
            raise NonUnitError("non-unit leading term: %s" % lead)
        root_exp = o / n
        lead_root = monomial_power(lead, Fraction(1, n))
        mono = PuiseuxSeries.unit(self.param, root_exp, lead_root)
        if len(self.coeffs) == 1 and self.trunc == INF:
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
        coeffs = {}
        for k, v in self.coeffs.items():
            if k == 0:
                continue
            coeffs[k - self.ram] = v * Fraction(k, self.ram)
        trunc = self.trunc if self.trunc == INF else self.trunc - 1
        return PuiseuxSeries(self.param, coeffs, self.ram, trunc)

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
        for k in sorted(self.coeffs):
            exp = Fraction(k, self.ram)
            coeff = self.coeffs[k]
            cs = str(coeff)
            if len(coeff.terms) > 1:
                cs = "(%s)" % cs
            if exp == 0:
                parts.append(cs)
            else:
                es = str(exp.numerator) if exp.denominator == 1 else "(%d/%d)" % (exp.numerator, exp.denominator)
                base = "%s^%s" % (self.param, es)
                parts.append(base if cs == "1" else "%s*%s" % (cs, base))
        if self.trunc != INF:
            t = self.trunc
            es = str(t.numerator) if t.denominator == 1 else "(%d/%d)" % (t.numerator, t.denominator)
            parts.append("O(%s^%s)" % (self.param, es))
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
    def identity(n, param=None):
        return SeriesMatrix([[PuiseuxSeries.const(1 if i == j else 0, param)
                              for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(rows, cols, param=None):
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
            out = []
            for i in range(self.rows):
                row = []
                for j in range(other.cols):
                    acc = self.entries[i][0] * other.entries[0][j]
                    for k in range(1, self.cols):
                        acc = acc + self.entries[i][k] * other.entries[k][j]
                    row.append(acc)
                out.append(row)
            return SeriesMatrix(out)
        return self.scale(other)

    def apply(self, vector):
        """Matrix times a list of series."""
        out = []
        for i in range(self.rows):
            acc = self.entries[i][0] * vector[0]
            for k in range(1, self.cols):
                acc = acc + self.entries[i][k] * vector[k]
            out.append(acc)
        return out

    def transpose(self):
        return SeriesMatrix([[self.entries[i][j] for i in range(self.rows)]
                             for j in range(self.cols)])

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.rows == 0:
            return PuiseuxSeries.const(1)
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
