import ast
import pathlib
import random
from fractions import Fraction as F

import pytest

from tautrel.multipoly import (MultiPoly as MP, NonUnitError,
                               _reduce_monomial, monomial_power,
                               root_of_rational, unit_roots)


def test_basic_ring_ops():
    x, y = MP.var("x"), MP.var("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert (x + 1) ** 3 == x ** 3 + 3 * x * x + 3 * x + 1


def test_laurent_and_fractional_exponents():
    x = MP.var("x")
    inv = x.inverse()
    assert x * inv == MP.const(1)
    half = MP.var("x", F(1, 2))
    assert half * half == x
    assert half.inverse() * half == MP.const(1)


def test_root_symbols_and_relations():
    r = root_of_rational(F(2), 2)       # sqrt(2) = @r2^6
    assert r * r == MP.const(2)
    s = root_of_rational(F(-2), 2)      # @i * sqrt(2)
    assert s * s == MP.const(-2)
    c = root_of_rational(F(3, 4), 3)
    assert c ** 3 == MP.const(F(3, 4))
    m = root_of_rational(F(-1), 6)      # branch (-i)
    assert m ** 6 == MP.const(-1)
    assert root_of_rational(F(-8), 3) == MP.const(-2)
    with pytest.raises(ValueError):
        root_of_rational(F(-1), 4)


def test_monomial_power_mixed():
    z = MP.var("zeta3")
    mono = MP.const(F(-3, 2)) * z
    r = monomial_power(mono, F(1, 2))
    assert r * r == mono
    assert monomial_power(mono, F(-1, 2)) * r == MP.const(1)


def test_power_of_zero():
    # a positive power of zero is zero, a negative one divides by zero
    x = MP.var("x")
    for zero in (MP(), x - x):
        for exponent in (F(1, 2), F(3, 2), 2):
            assert monomial_power(zero, exponent).is_zero()
        for exponent in (F(-1, 2), -1):
            with pytest.raises(ZeroDivisionError, match="division by zero"):
                monomial_power(zero, exponent)


def test_unit_roots():
    for k in (1, 2, 4):
        roots = unit_roots(k)
        assert len(set(roots)) == k and roots[0] == MP.const(1)
        assert all(u ** k == MP.const(1) for u in roots)
    assert unit_roots(4)[2:] == [MP.var("@i"), -MP.var("@i")]
    with pytest.raises(ValueError):
        unit_roots(3)


def test_root_symbols_only_in_multipoly():
    # the defining relations of @-symbols live in multipoly alone: no other
    # module spells a root symbol
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "tautrel"
    for path in sorted(src.glob("*.py")):
        if path.name == "multipoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                assert not node.value.startswith("@"), (path.name, node.lineno)


def test_inverse_requires_monomial():
    x = MP.var("x")
    with pytest.raises(NonUnitError):
        (x + 1).inverse()
    # zero is no non-unit but a zero divisor
    for zero in (MP(), MP.const(0), x - x):
        with pytest.raises(ZeroDivisionError, match="division by zero"):
            zero.inverse()


def test_derivative_antiderivative():
    x, y = MP.var("x"), MP.var("y")
    p = x ** 3 * y + MP.const(F(1, 2)) * x
    assert p.derivative("x") == 3 * x * x * y + MP.const(F(1, 2))
    q = p.derivative("x").antiderivative("x")
    assert q == p  # no constant term in p along x


def test_substitute():
    x, t = MP.var("x"), MP.var("t")
    p = x * x + 2 * x + 1
    assert p.substitute({"x": t - 1}) == t * t


def test_substitute_is_simultaneous():
    # one symbol after the other would turn x*y^2 into x^3, not x^2*y
    x, y = MP.var("x"), MP.var("y")
    assert (x * y ** 2).substitute({"x": y, "y": x}) == x ** 2 * y


def _substitute_by_renaming(poly, values):
    # reference: rename every symbol to a fresh one, then substitute the
    # fresh symbols one at a time
    for sym in values:
        poly = poly.substitute({sym: MP.var("__sub_" + sym)})
    for sym, value in values.items():
        poly = poly.substitute({"__sub_" + sym: value})
    return poly


def test_substitute_matches_renaming():
    # x takes polynomial values at positive integer powers; y takes monomial
    # values at negative and fractional powers; z and the root symbols stay
    rng = random.Random(26)

    def rand_poly(exponents):
        poly = MP()
        for _ in range(rng.randint(0, 4)):
            pairs = [(sym, rng.choice(exps)) for sym, exps in exponents.items()
                     if rng.random() < 0.6]
            poly = poly + MP.monomial(F(rng.randint(-5, 5), rng.randint(1, 3)), pairs)
        return poly

    for _ in range(150):
        poly = rand_poly({"x": [1, 2, 3], "y": [-2, F(-1, 2), F(1, 3), 1, F(3, 2)],
                          "z": [-1, F(1, 2), 1], "@i": [1], "@r2": [1, 7]})
        values = {"x": rand_poly({"x": [1, 2], "y": [-1, 1], "z": [F(1, 2), 1]}),
                  "y": MP.monomial(F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)),
                                   [("x", rng.choice([-1, F(1, 2), 1])),
                                    ("z", rng.choice([F(-3, 2), 1, 2]))])}
        assert poly.substitute(values) == _substitute_by_renaming(poly, values), poly


def test_random_ring_axioms():
    rng = random.Random(7)

    def rand_poly():
        out = MP()
        for _ in range(rng.randint(1, 4)):
            mono = []
            for sym in ("x", "y"):
                e = rng.randint(-2, 2)
                if e:
                    mono.append((sym, F(e)))
            out = out + MP.monomial(F(rng.randint(-5, 5), rng.randint(1, 3)), mono)
        return out

    for _ in range(40):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_monomial_product_matches_reduction():
    # adjoined symbols wrap past their relation (@i^2 = -1, @rp^12 = p);
    # free symbols carry negative and fractional exponents
    rng = random.Random(11)
    exponents = {"@i": range(1, 2), "@r2": range(1, 12), "@r3": range(1, 12)}

    def rand_mono():
        pairs = []
        for sym in ("@i", "@r2", "@r3"):
            if rng.random() < 0.6:
                pairs.append((sym, F(rng.choice(exponents[sym]))))
        for sym in ("t1", "zeta3"):
            if rng.random() < 0.6:
                e = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
                if e:
                    pairs.append((sym, e))
        mono, factor = _reduce_monomial(pairs)
        assert factor == 1  # in-range exponents need no reduction
        return mono

    def product(a, b):
        (mono, coeff), = (MP({a: 1}) * MP({b: 1})).terms.items()
        return mono, coeff

    monos = [()] + [rand_mono() for _ in range(60)]
    for m1 in monos:
        for m2 in monos[:12]:
            for a, b in ((m1, m2), (m2, m1)):
                assert product(a, b) == _reduce_monomial(a + b)
    wrapped = product((("@i", F(1)), ("@r2", F(7))),
                      (("@i", F(1)), ("@r2", F(9))))
    assert wrapped == ((("@r2", F(4)),), F(-2))


def _assert_canonical_keys(poly):
    # integral exponents are stored as int, fractional ones as Fraction
    for mono in poly.terms:
        for _, e in mono:
            if type(e) is not int:
                assert type(e) is F and e.denominator != 1, mono


def test_canonical_exponent_types():
    x, y = MP.var("x"), MP.var("y", F(1, 2))
    mono = MP.monomial(F(9, 4), [("x", F(4, 2)), ("y", F(-2, 3)),
                                 ("@r3", F(14))])
    polys = [
        x, y, MP.var("x", F(2)), MP.var("@i", 3), MP.var("@r2", 13), mono,
        y * y, x * y, MP.var("@i") * MP.var("@i"),
        MP.var("@r2", 7) * MP.var("@r2", 9) * y,
        mono.inverse(), (x * y).inverse(),
        (x ** 3 * y).derivative("x"), (x ** 3 * y).derivative("y"),
        MP.var("x", F(3, 2)).derivative("x"),
        MP.var("x", F(-1, 2)).antiderivative("x"), (x * y).antiderivative("x"),
        (x * x + x).substitute({"x": y + 1}),
        MP.var("x", F(3, 2)).substitute({"x": MP.var("y", 2)}),
        monomial_power(mono, F(1, 2)), monomial_power(mono, F(-3, 2)),
        monomial_power(mono, 3), monomial_power(MP.var("x", 2), F(1, 2)),
        root_of_rational(F(-2), 2), root_of_rational(F(18, 5), 12),
        root_of_rational(6, 3), root_of_rational(F(-1), 6),
    ]
    for poly in polys:
        _assert_canonical_keys(poly)
    assert monomial_power(MP.var("x", 2), F(1, 2)).terms == {(("x", 1),): 1}


def test_coefficient_lookup_with_fraction_exponents():
    p = MP.monomial(5, [("x", 2), ("y", F(1, 2)), ("@r2", 3)]) + MP.var("x")
    assert p.coefficient((("x", F(2)), ("y", F(1, 2)), ("@r2", F(3)))) == 5
    assert p.coefficient((("x", F(1)),)) == 1
    assert p.terms[(("@r2", F(3)), ("x", F(2)), ("y", F(1, 2)))] == 5
    # a key that wraps past the relation is reduced first: @r2^15 = 2 @r2^3
    assert p.coefficient((("@r2", F(15)), ("x", F(2)), ("y", F(1, 2)))) \
        == F(5, 2)
