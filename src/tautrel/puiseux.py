"""Truncated Puiseux/Laurent series in one local parameter, and matrices.

A ``PuiseuxSeries`` holds exact coefficients on the exponent grid ``k / ram``
for integer ``k`` (negative exponents allowed) together with an explicit
``trunc``: exponents ``>= trunc`` are unknown.  Every operation propagates
the minimal trustworthy truncation; nothing ever silently extends precision.
``trunc = INF`` marks exact data such as polynomial input.

The coefficients are stored in one integer form, the term tuple ``terms``:
a ``(k, id, n)`` triple per monomial, sorted by ``(k, id)``, where ``id``
names an interned monomial and ``n`` is an ``int`` numerator over one
positive ``int`` denominator ``den``.  The form is normalized (no zero
numerators, gcd(den, numerators) == gcd(ram, indices) == 1), so equal series
have equal tuples.  ``tq`` is the truncation as an integer pair, or None when
exact.  Products of ids are memoized with their integral relation factor, so
arithmetic never touches a ``Fraction`` coefficient, and the product kernel
compares truncations as integers and stops each walk at the cap.  Against a
map per grid index and a truncation pass per call, this took ``a3-extract2``
``solve_s`` from 0.119 s to 0.086 s (``BENCH_28.json``).  ``coeffs`` is the
derived view ``{k: MultiPoly}``.

The text form, used by golden tests, lists ``coeff*param^(p/q)`` terms sorted
by exponent and ends with ``+ O(param^T)`` when the truncation is finite.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import groupby
from math import gcd, inf as INF, lcm
from operator import itemgetter

from .multipoly import (ONE_MONOMIAL, MultiPoly, NonUnitError,
                        _reduce_monomial, monomial_power)


def _as_poly(value) -> MultiPoly:
    if isinstance(value, MultiPoly):
        return value
    return MultiPoly.const(value)


# Interned reduced monomials: id -> monomial and monomial -> id, id 0 the
# constant monomial.  _PRODUCTS[i][j] memoizes (id of m_i * m_j, relation
# factor as an int), stored under both orders; _DERIVATIVES[i, symbol] holds
# (id of d m_i / d symbol, exponent times relation factor), or None when
# ``symbol`` does not occur in m_i.  Ids are only ever appended, so an id stays
# valid for the life of the process; the tables grow with the distinct
# monomials a process meets, about a hundred on the paper's A3 chart.
_MONOS = [ONE_MONOMIAL]
_IDS = {ONE_MONOMIAL: 0}
_PRODUCTS = [{}]
_DERIVATIVES = {}


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


def _derivative(i: int, symbol):
    """(id, rational factor) of d m_i / d ``symbol``, or None, memoized."""
    mono = _MONOS[i]
    for pos, (sym, exp) in enumerate(mono):
        if sym == symbol:
            rest = mono[:pos] + mono[pos + 1:]
            new, factor = _reduce_monomial(
                rest if exp == 1 else rest + ((sym, exp - 1),))
            out = (_intern(new), exp * factor)
            break
    else:
        out = None
    _DERIVATIVES[i, symbol] = out
    return out


def _poly(terms, den) -> MultiPoly:
    """The ``MultiPoly`` of the ``(k, id, n)`` triples of one grid index."""
    out = MultiPoly.__new__(MultiPoly)
    out.terms = {_MONOS[i]: Fraction(n, den) for _, i, n in terms}
    return out


def _series(param, ram, trunc, terms, den):
    return PuiseuxSeries.__new__(PuiseuxSeries)._set(param, ram, trunc,
                                                     terms, den)


def _sorted_terms(acc):
    """The triples of an accumulator ``{(k, id): n}``, sorted by (k, id)."""
    return [(k, i, n) for (k, i), n in sorted(acc.items())]


def _cleared(terms, den=1):
    """Sorted ``(k, id, c)`` triples with rational ``c`` over ``den``, as
    ``int`` triples over one denominator: ``(triples, denominator)``."""
    m = lcm(*[c.denominator for _, _, c in terms])
    return ([(k, i, c.numerator * (m // c.denominator)) for k, i, c in terms],
            den * m)


def _as_trunc(trunc):
    """``trunc`` as a ``Fraction``, or the one INF object, so that the kernel
    tests ``trunc is INF``."""
    return INF if trunc == INF else Fraction(trunc)


def _kcap(trunc, ram):
    """Least grid index ``k`` with ``k / ram >= trunc``, or INF."""
    if trunc is INF:
        return INF
    return -(-trunc.numerator * ram // trunc.denominator)


_KEY = itemgetter(0)


class PuiseuxSeries:
    __slots__ = ("param", "ram", "trunc", "tq", "terms", "den")

    def __init__(self, param, coeffs=None, ram=1, trunc=INF):
        trunc = _as_trunc(trunc)
        kcap = _kcap(trunc, ram)
        terms = []
        if coeffs:
            for k, poly in coeffs.items():
                poly = _as_poly(poly)
                if not poly.terms or k >= kcap:
                    continue
                if param in poly.variables():
                    raise ValueError("coefficient contains the parameter %s" % param)
                terms += [(k, _intern(m), c) for m, c in poly.terms.items()]
        terms.sort()
        self._set(param, ram, trunc, *_cleared(terms))

    def _set(self, param, ram, trunc, terms, den):
        """Store sorted ``(k, id, n)`` triples in normal form, normalized
        once: zero numerators dropped, and ``ram`` and ``den`` divided by
        their gcds with the indices and with the numerators."""
        terms = [t for t in terms if t[2]]
        if not terms:
            ram = den = 1
        else:
            ks, _, ns = zip(*terms)
            g, h = gcd(ram, *ks), gcd(den, *ns)
            if g > 1 or h > 1:
                terms = [(k // g, i, n // h) for k, i, n in terms]
                ram //= g
                den //= h
        self.param = param
        self.ram = ram
        self.trunc = trunc
        self.tq = None if trunc is INF else (trunc.numerator,
                                             trunc.denominator)
        self.terms = tuple(terms)
        self.den = den
        return self

    @property
    def coeffs(self):
        """The coefficients as ``{k: MultiPoly}``, built on each access."""
        return {k: _poly(t, self.den) for k, t in groupby(self.terms, _KEY)}

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
        ram = lcm(*[e.denominator for mono in poly.terms
                    for sym, e in mono if sym == param])
        terms = []
        for mono, coeff in poly.terms.items():
            exp = 0
            rest = []
            for sym, e in mono:
                if sym == param:
                    exp = e
                else:
                    rest.append((sym, e))
            # the rest of a reduced monomial is reduced
            terms.append((int(exp * ram), _intern(tuple(rest)), coeff))
        trunc = _as_trunc(trunc)
        kcap = _kcap(trunc, ram)
        return _series(param, ram, trunc,
                       *_cleared(sorted(t for t in terms if t[0] < kcap)))

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        """Zero up to the stored truncation."""
        return not self.terms

    def order(self):
        """Least exponent with nonzero coefficient, or None if zero to trunc."""
        if not self.terms:
            return None
        return Fraction(self.terms[0][0], self.ram)

    def order_or_trunc(self):
        o = self.order()
        return self.trunc if o is None else o

    def coefficient(self, exponent) -> MultiPoly:
        exponent = Fraction(exponent)
        if exponent >= self.trunc:
            raise ValueError("exponent %s beyond truncation %s" % (exponent, self.trunc))
        k, r = divmod(exponent.numerator * self.ram, exponent.denominator)
        return _poly(() if r else [t for t in self.terms if t[0] == k],
                     self.den)

    def support(self):
        return [Fraction(k, self.ram) for k, _ in groupby(self.terms, _KEY)]

    def polar_terms(self):
        """The terms below exponent 0 as ``(exponent, monomial, numerator)``
        triples in increasing exponent, with the one denominator ``den``:
        ``(triples, den)``."""
        stop = bisect_left(self.terms, (0,))
        return ([(Fraction(k, self.ram), _MONOS[i], n)
                 for k, i, n in self.terms[:stop]], self.den)

    def leading(self) -> MultiPoly:
        """The coefficient of the least exponent; the series must be nonzero."""
        return _poly(next(groupby(self.terms, _KEY))[1], self.den)

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _coerce(value, param):
        if isinstance(value, PuiseuxSeries):
            return value
        return PuiseuxSeries.const(_as_poly(value), param)

    def truncate(self, trunc):
        trunc = min(self.trunc, _as_trunc(trunc))
        terms = self.terms
        return _series(self.param, self.ram, trunc,
                       terms[:bisect_left(terms, (_kcap(trunc, self.ram),))],
                       self.den)

    def _scaled(self, c):
        """Product with a rational ``c``: same support and truncation."""
        if not c:
            return PuiseuxSeries.zero(self.param)
        c = Fraction(c)
        n = c.numerator
        return _series(self.param, self.ram, self.trunc,
                       [(k, i, v * n) for k, i, v in self.terms],
                       self.den * c.denominator)

    # -- arithmetic -------------------------------------------------------------

    def _add(self, other, sign):
        """``self + sign * other`` on the common grid and the lcm of the two
        denominators, truncated at the lesser truncation: the two sorted
        tuples, cut at the cap, merged."""
        other = PuiseuxSeries._coerce(other, self.param)
        if other.param != self.param:
            raise ValueError("parameter mismatch: %s vs %s"
                             % (self.param, other.param))
        ram = lcm(self.ram, other.ram)
        den = lcm(self.den, other.den)
        trunc = min(self.trunc, other.trunc)
        kcap = _kcap(trunc, ram)
        acc = {}
        for s, m in ((self, den // self.den),
                     (other, sign * (den // other.den))):
            f = ram // s.ram
            for k, i, n in s.terms:
                k *= f
                if k >= kcap:
                    break
                acc[k, i] = acc.get((k, i), 0) + n * m
        return _series(self.param, ram, trunc, _sorted_terms(acc), den)

    def __add__(self, other):
        return self._add(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _series(self.param, self.ram, self.trunc,
                       [(k, i, -n) for k, i, n in self.terms], self.den)

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
        ``a.den * b.den``.  The truncation is the least of the products'
        ``min(a.trunc + ord b, b.trunc + ord a)``, the order of a zero operand
        read as its truncation, so cancelled products still bound the sum.
        Each candidate is an unreduced ``x / y`` equal to ``trunc * ram``,
        formed from the integer truncations ``tq`` and least indices and
        compared as integers; one ``Fraction`` is built.  On the grid, ``k /
        ram >= trunc`` holds exactly when ``k >= kcap = ceil(trunc * ram)``,
        so each walk over the sorted term tuples stops at ``kcap``.  Every
        product adds into one accumulator per (index, monomial), and the
        result is normalized once.
        """
        ram = den = 1
        for a, b in pairs:
            if a.param != param or b.param != param:
                raise ValueError("parameter mismatch: %s vs %s" % (
                    a.param if a.param != param else b.param, param))
            ram = lcm(ram, a.ram, b.ram)
            den = lcm(den, a.den * b.den)
        x = y = None
        for a, b in pairs:
            for t, s in ((a.tq, b), (b.tq, a)):
                if t is None:
                    continue
                n, d = t
                if s.terms:
                    n = n * ram + s.terms[0][0] * (ram // s.ram) * d
                elif s.tq is None:
                    continue
                else:
                    u, v = s.tq
                    n = (n * v + u * d) * ram
                    d *= v
                if x is None or n * y < x * d:
                    x, y = n, d
        if x is None:
            trunc = kcap = INF
        else:
            trunc, kcap = Fraction(x, y * ram), -(-x // y)
        products = _PRODUCTS
        acc = {}
        for a, b in pairs:
            bt = b.terms
            if not bt:
                continue
            fa, fb = ram // a.ram, ram // b.ram
            scale = den // (a.den * b.den)
            cap = kcap - bt[0][0] * fb
            for k1, i1, c1 in a.terms:
                k1 *= fa
                if k1 >= cap:
                    break
                row = products[i1]
                c1 *= scale
                for k2, i2, c2 in bt:
                    k = k1 + k2 * fb
                    if k >= kcap:
                        break
                    p = row.get(i2) or _product(i1, i2)
                    key = k, p[0]
                    acc[key] = acc.get(key, 0) + c1 * c2 * p[1]
        return _series(param, ram, trunc, _sorted_terms(acc), den)

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
                and self.den == other.den and self.terms == other.terms
                and self.trunc == other.trunc)

    def invert(self, trunc=None):
        """Multiplicative inverse, known below ``self.trunc - 2 * order`` or
        ``trunc`` if less, by the power recurrence of ``_power``; the leading
        coefficient must be a unit."""
        o = self.order()
        if o is None:
            raise ZeroDivisionError("inversion of a series that is zero to truncation")
        lead = self.leading()
        if not lead.is_monomial():
            raise NonUnitError("non-unit leading term: %s" % lead)
        mono = PuiseuxSeries.unit(self.param, -o, lead.inverse())
        return self._power(-1, 1, mono, trunc, "inversion")

    def nth_root(self, n: int, trunc=None):
        """The n-th root that starts with ``monomial_power`` of the leading
        term, known below ``self.trunc - order + order / n`` or ``trunc`` if
        less, by the power recurrence of ``_power``; ramification extends as
        needed."""
        o = self.order()
        if o is None:
            raise ValueError("root of a series that is zero to truncation")
        lead = self.leading()
        if not lead.is_monomial():
            raise NonUnitError("non-unit leading term: %s" % lead)
        mono = PuiseuxSeries.unit(self.param, o / n,
                                  monomial_power(lead, Fraction(1, n)))
        return self._power(1, n, mono, trunc, "root")

    def _power(self, p, q, mono, trunc, name):
        """``self ** a`` for a = p/q = -1 or 1/n, leading term ``mono``.

        Exact input of one term gives ``mono``; other exact input needs
        ``trunc``.  v = self / (lead t^o) starts with exactly 1 at exponent 0
        (o the order), and y = v^a on v's grid satisfies v y' = a v' y, so
        q k y_k = sum_{j=1..k} ((p+q) j - q k) v_j y_{k-j} (J. C. P. Miller's
        recurrence, Knuth, TAOCP 4.7): one pass of monomial products through
        ``_PRODUCTS``, y_k kept as int numerators over its own denominator.
        """
        if self.trunc == INF and len(self.terms) == 1:
            return mono if trunc is None else mono.truncate(trunc)
        o = self.order()
        if self.trunc == INF:
            if trunc is None:
                raise ValueError("%s of exact non-monomial series needs a "
                                 "target truncation" % name)
            t_res = Fraction(trunc)
        else:
            t_res = self.trunc - o + o * p / q
            if trunc is not None:
                t_res = min(t_res, Fraction(trunc))
        v = self * PuiseuxSeries.unit(self.param, -o,
                                      self.leading().inverse())
        vt = v.terms
        if vt[0] != (0, 0, v.den) or len(vt) > 1 and vt[1][0] == 0:
            raise ArithmeticError("normalized series %s does not start with "
                                  "exactly 1" % v)
        t_y = t_res - o * p / q
        kcap = _kcap(t_y, v.ram)
        steps = [(j, [(i, n) for _, i, n in g])
                 for j, g in groupby(vt[1:bisect_left(vt, (kcap,))], _KEY)]
        ys, dens = [((0, 1),)], [1]
        for k in range(1, kcap):
            m = lcm(*[dens[k - j] for j, _ in steps if j <= k])
            acc = {}
            for j, vj in steps:
                if j > k:
                    break
                c = ((p + q) * j - q * k) * (m // dens[k - j])
                for i1, n1 in vj:
                    row = _PRODUCTS[i1]
                    for i2, n2 in ys[k - j]:
                        pr = row.get(i2) or _product(i1, i2)
                        acc[pr[0]] = acc.get(pr[0], 0) + c * n1 * n2 * pr[1]
            d = q * k * v.den * m
            g = gcd(d, *acc.values())
            ys.append(tuple((i, n // g) for i, n in acc.items() if n))
            dens.append(d // g)
        den = lcm(*dens)
        terms = sorted((k, i, n * (den // dk))
                       for k, (y, dk) in enumerate(zip(ys, dens)) if k < kcap
                       for i, n in y)
        return _series(self.param, v.ram, t_y, terms, den) * mono

    def sqrt(self, trunc=None):
        return self.nth_root(2, trunc=trunc)

    # -- calculus ------------------------------------------------------------

    def derivative(self):
        """d/d(param)."""
        ram = self.ram
        trunc = self.trunc if self.trunc == INF else self.trunc - 1
        return _series(self.param, ram, trunc,
                       [(k - ram, i, n * k) for k, i, n in self.terms if k],
                       self.den * ram)

    def derivative_sym(self, symbol):
        """Coefficient-wise derivative with respect to a background symbol:
        each monomial maps through the memo ``_DERIVATIVES``."""
        if symbol == self.param:
            return self.derivative()
        acc = {}
        for k, i, n in self.terms:
            key = i, symbol
            d = _DERIVATIVES[key] if key in _DERIVATIVES else _derivative(*key)
            if d is not None:
                key = k, d[0]
                acc[key] = acc.get(key, 0) + n * d[1]
        return _series(self.param, self.ram, self.trunc,
                       *_cleared(_sorted_terms(acc), self.den))

    def antiderivative(self):
        """Antiderivative in param with zero constant term."""
        ram = self.ram
        if any(k == -ram for k, _, _ in self.terms):
            raise ArithmeticError("antiderivative produces a log term")
        trunc = self.trunc if self.trunc == INF else self.trunc + 1
        return _series(self.param, ram, trunc, *_cleared(
            [(k + ram, i, Fraction(n * ram, k + ram))
             for k, i, n in self.terms], self.den))

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        parts = []
        for k, coeff in self.coeffs.items():
            exp = Fraction(k, self.ram)
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
