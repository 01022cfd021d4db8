"""Exact multivariate Laurent polynomials over Q with adjoined root symbols.

Coefficients everywhere in this package are ``MultiPoly`` values: finite
Q-linear combinations of monomials in named symbols.  ``MultiPoly`` is the
plain exact ring of the chart and frame layers: a product reduces every
pair of monomials afresh, with no cache.  Series arithmetic does not go
through it; the interned monomial table of ``puiseux`` is the only memo of
monomial products.  Free symbols (``t0``,
``eta1``, ``zeta3``, ...) may carry arbitrary rational exponents; they live on
a declared ramified cover, so fractional and negative powers are legitimate
monomial data, not function evaluations.

Symbols starting with ``@`` are adjoined algebraic constants with a defining
power relation derived from the name:

* ``@i``     with ``@i**2 == -1``
* ``@r<p>``  with ``@r<p>**12 == p`` for a prime ``p`` (so ``@r2**6`` is
  ``sqrt(2)``, ``@r2**4`` is ``2**(1/3)``, ...)

Exponents of ``@``-symbols are integers and are reduced into ``0..n-1`` using
the relation.  Distinct primes and ``@i`` generate linearly disjoint field
extensions, so equality of canonical forms is exact equality of numbers.

In a stored monomial an integral exponent is a plain ``int`` and a
fractional one a ``Fraction``, so integral keys hash without ``Fraction``
arithmetic.  ``2 == Fraction(2)`` and their hashes agree, so a key written
with ``Fraction`` exponents still finds its term.

Branch convention for roots of negative rationals: ``(-c)**(1/2) = @i*c**(1/2)``,
``(-c)**(1/3) = -(c**(1/3))``, ``(-c)**(1/6) = -@i*c**(1/6)``.  Fourth and
twelfth roots of negative numbers are not needed and raise.

Powers (``MultiPoly.__pow__``, ``monomial_power``), roots (``root_of_rational``,
``unit_roots``) and substitution (``substitute``, of a symbol map at once) live
here alone; no other module spells an ``@``-symbol.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

Scalar = Union[int, Fraction]

# monomial: sorted tuple of (symbol, exponent) with nonzero exponents; an
# exponent is an ``int`` when integral and a ``Fraction`` otherwise
Monomial = Tuple[Tuple[str, Scalar], ...]

ONE_MONOMIAL: Monomial = ()


class NonUnitError(ArithmeticError):
    """Raised when inverting something whose leading term is not a unit."""


@functools.lru_cache(maxsize=None)
def _relation(symbol: str):
    """Return (n, value) with symbol**n == value, or None for free symbols."""
    if not symbol.startswith("@"):
        return None
    if symbol == "@i":
        return (2, Fraction(-1))
    if symbol.startswith("@r"):
        p = int(symbol[2:])
        return (12, Fraction(p))
    raise ValueError("unknown adjoined symbol %r" % symbol)


def _reduce_monomial(pairs: Iterable[Tuple[str, Scalar]]):
    """Sort, merge and relation-reduce; returns (monomial, rational factor).

    Integral exponents come out as ``int``, fractional ones as ``Fraction``.
    """
    merged: Dict[str, Scalar] = {}
    for sym, exp in pairs:
        if type(exp) is not int:
            exp = Fraction(exp)
        merged[sym] = merged.get(sym, 0) + exp
    factor = 1
    out = []
    for sym in sorted(merged):
        exp = merged[sym]
        if exp == 0:
            continue
        rel = _relation(sym)
        if rel is not None:
            n, value = rel
            if exp.denominator != 1:
                raise ValueError("fractional power of %s" % sym)
            q, r = divmod(exp.numerator, n)
            if q:
                factor *= value ** q
            if r:
                out.append((sym, r))
        else:
            out.append((sym, exp.numerator if exp.denominator == 1 else exp))
    return tuple(out), factor


class MultiPoly:
    """Immutable Laurent polynomial; ``terms`` maps monomial -> Fraction."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: Dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                coeff = Fraction(coeff)
                if coeff == 0:
                    continue
                mono, factor = _reduce_monomial(mono)
                coeff *= factor
                acc = clean.get(mono, Fraction(0)) + coeff
                if acc == 0:
                    clean.pop(mono, None)
                else:
                    clean[mono] = acc
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @staticmethod
    def const(value) -> "MultiPoly":
        value = Fraction(value)
        return MultiPoly({ONE_MONOMIAL: value}) if value else MultiPoly()

    @staticmethod
    def var(symbol: str, exponent=1) -> "MultiPoly":
        return MultiPoly({((symbol, Fraction(exponent)),): Fraction(1)})

    @staticmethod
    def monomial(coeff, pairs) -> "MultiPoly":
        return MultiPoly({tuple((s, Fraction(e)) for s, e in pairs): Fraction(coeff)})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONOMIAL in self.terms)

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant: %s" % self)
        return self.terms[ONE_MONOMIAL]

    def variables(self):
        out = set()
        for mono in self.terms:
            for sym, _ in mono:
                out.add(sym)
        return out

    def coefficient(self, mono: Monomial) -> Fraction:
        mono, factor = _reduce_monomial(mono)
        return self.terms.get(mono, Fraction(0)) / factor

    # -- ring operations ----------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = MultiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, Fraction(0)) + coeff
            if acc == 0:
                terms.pop(mono, None)
            else:
                terms[mono] = acc
        out = MultiPoly.__new__(MultiPoly)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {m: -c for m, c in self.terms.items()}
        return out

    def __sub__(self, other):
        other = MultiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return MultiPoly._coerce(other) - self

    def __mul__(self, other):
        other = MultiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: Dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono, factor = _reduce_monomial(m1 + m2)
                terms[mono] = terms.get(mono, 0) + c1 * c2 * factor
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer power expected")
        if n < 0:
            return self.inverse() ** (-n)
        result = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "MultiPoly":
        """Inverse of a monomial (the units of this ring)."""
        if not self.terms:
            raise ZeroDivisionError("division by zero")
        if len(self.terms) != 1:
            raise NonUnitError("non-unit leading term: %s" % self)
        (mono, coeff), = self.terms.items()
        pairs = []
        factor = Fraction(1) / coeff
        for sym, exp in mono:
            rel = _relation(sym)
            if rel is None:
                pairs.append((sym, -exp))
            else:
                n, value = rel
                pairs.append((sym, Fraction(n) - exp))
                factor /= value
        return MultiPoly.monomial(factor, pairs)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError
            return self * MultiPoly.const(Fraction(1) / Fraction(other))
        if isinstance(other, MultiPoly):
            return self * other.inverse()
        return NotImplemented

    def __eq__(self, other):
        other = MultiPoly._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- calculus -----------------------------------------------------------

    def derivative(self, symbol: str) -> "MultiPoly":
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            for k, (sym, exp) in enumerate(mono):
                if sym == symbol:
                    rest = mono[:k] + mono[k + 1:]
                    new = rest if exp == 1 else rest + ((sym, exp - 1),)
                    new, factor = _reduce_monomial(new)
                    acc = terms.get(new, Fraction(0)) + coeff * exp * factor
                    if acc == 0:
                        terms.pop(new, None)
                    else:
                        terms[new] = acc
                    break
        out = MultiPoly.__new__(MultiPoly)
        out.terms = terms
        return out

    def antiderivative(self, symbol: str) -> "MultiPoly":
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            exp = Fraction(0)
            rest = []
            for sym, e in mono:
                if sym == symbol:
                    exp = e
                else:
                    rest.append((sym, e))
            if exp == -1:
                raise ArithmeticError("antiderivative produces a log term")
            rest.append((symbol, exp + 1))
            new, factor = _reduce_monomial(rest)
            terms[new] = terms.get(new, Fraction(0)) + coeff * factor / (exp + 1)
        return MultiPoly(terms)

    def substitute(self, values: Dict[str, "MultiPoly"]) -> "MultiPoly":
        """Replace every symbol of the map ``values`` by its MultiPoly at once,
        so ``{"x": y, "y": x}`` swaps ``x`` and ``y``.  Each (symbol, exponent)
        power is formed once; a fractional power needs a monomial value."""
        powers = {}
        terms: Dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            term = MultiPoly({tuple(p for p in mono if p[0] not in values): coeff})
            for sym, exp in mono:
                if sym in values:
                    if (sym, exp) not in powers:
                        powers[sym, exp] = monomial_power(values[sym], exp)
                    term = term * powers[sym, exp]
            for m, c in term.terms.items():
                terms[m] = terms.get(m, 0) + c
        out = MultiPoly.__new__(MultiPoly)
        out.terms = {m: c for m, c in terms.items() if c}
        return out

    # -- formatting -----------------------------------------------------------

    @staticmethod
    def _fmt_exp(exp: Fraction) -> str:
        if exp.denominator == 1:
            return str(exp.numerator)
        return "(%s/%s)" % (exp.numerator, exp.denominator)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            coeff = self.terms[mono]
            factors = []
            if not mono:
                factors.append(str(coeff))
            else:
                if coeff == -1:
                    factors.append("-1")
                elif coeff != 1:
                    factors.append(str(coeff))
                for sym, exp in mono:
                    factors.append(sym if exp == 1 else "%s^%s" % (sym, MultiPoly._fmt_exp(exp)))
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__


# ---------------------------------------------------------------------------
# roots of rationals and of monomials


def _factor_int(n: int):
    assert n > 0
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def root_of_rational(value, n: int) -> MultiPoly:
    """A chosen branch of ``value**(1/n)`` as a monomial, adjoining symbols."""
    value = Fraction(value)
    if value == 0:
        return MultiPoly()
    if n <= 0:
        raise ValueError("root index must be positive")
    sign = MultiPoly.const(1)
    if value < 0:
        if n % 2 == 1:
            sign = MultiPoly.const(-1)
        elif n == 2:
            sign = MultiPoly.var("@i")
        elif n == 6:
            sign = MultiPoly.const(-1) * MultiPoly.var("@i")
        else:
            raise ValueError("no branch table entry for (-1)**(1/%d)" % n)
        value = -value
    if 12 % n != 0:
        raise ValueError("only root indices dividing 12 are supported")
    rational = Fraction(1)
    pairs = []
    factors = _factor_int(value.numerator)
    for p, k in _factor_int(value.denominator).items():
        factors[p] = factors.get(p, 0) - k
    for p, k in sorted(factors.items()):
        e = 12 * k // n  # p**(k/n) = @rp**e
        q, r = divmod(e, 12)
        rational *= Fraction(p) ** q
        if r:
            pairs.append(("@r%d" % p, r))
    return sign * MultiPoly.monomial(rational, pairs)


def unit_roots(k: int):
    """The k-th roots of unity for k dividing 4, principal root first."""
    if 4 % k:
        raise ValueError("no roots of unity of order %d" % k)
    i = MultiPoly.var("@i")
    return [MultiPoly.const(1), MultiPoly.const(-1), i, -i][:k]


def monomial_power(poly: MultiPoly, exponent: Fraction) -> MultiPoly:
    """``poly**exponent`` for rational ``exponent``; an integral one goes
    through ``MultiPoly.__pow__``.  A fractional power needs a monomial
    ``poly`` or zero; a negative power of zero raises ``ZeroDivisionError``."""
    exponent = Fraction(exponent)
    if exponent.denominator == 1:
        return poly ** int(exponent)
    if not poly.terms:
        if exponent < 0:
            raise ZeroDivisionError("division by zero")
        return MultiPoly()
    if len(poly.terms) != 1:
        raise NonUnitError("non-unit leading term: fractional power of %s" % poly)
    (mono, coeff), = poly.terms.items()
    n = exponent.denominator
    root = root_of_rational(coeff, n)
    pairs = []
    for sym, exp in mono:
        exp = Fraction(exp) / n
        if _relation(sym) is not None and exp.denominator != 1:
            raise ValueError("cannot take %s-th root of %s" % (n, sym))
        pairs.append((sym, exp))
    return (root * MultiPoly.monomial(1, pairs)) ** exponent.numerator
