import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest

from tautrel.multipoly import MultiPoly as MP, NonUnitError, monomial_power
from tautrel.puiseux import INF, PuiseuxSeries as PS, SeriesMatrix


def geometric(param, exponent, n_terms):
    """Independent oracle: 1/(1 - param^exponent) summed directly."""
    out = PS.zero(param, trunc=F(exponent) * n_terms)
    for k in range(n_terms):
        out = out + PS.unit(param, F(exponent) * k)
    return out


def binomial_sqrt(param, coeff, n_terms):
    """Independent oracle for sqrt(1 + coeff*t): binomial series."""
    out = PS.zero(param, trunc=n_terms)
    c = F(1)
    for k in range(n_terms):
        # C(1/2, k)
        num = F(1)
        for j in range(k):
            num *= F(1, 2) - j
        term = num / _fact(k)
        out = out + PS.unit(param, k, MP.const(term) * coeff ** k)
    return out


def _fact(k):
    out = 1
    for i in range(2, k + 1):
        out *= i
    return out


def schoolbook_mul(a, b):
    """Reference product: both operands on the common grid, a Fraction
    truncation test per pair, and coefficient products summed monomial by
    monomial through the normalizing constructors."""
    ram = a.ram * b.ram // gcd(a.ram, b.ram)
    a_coeffs = {k * (ram // a.ram): v for k, v in a.coeffs.items()}
    b_coeffs = {k * (ram // b.ram): v for k, v in b.coeffs.items()}
    trunc = min(a.trunc + b.order_or_trunc(), b.trunc + a.order_or_trunc())
    coeffs = {}
    for k1, v1 in a_coeffs.items():
        for k2, v2 in b_coeffs.items():
            if trunc != INF and F(k1 + k2, ram) >= trunc:
                continue
            for m1, c1 in v1.terms.items():
                for m2, c2 in v2.terms.items():
                    coeffs[k1 + k2] = (coeffs.get(k1 + k2, MP())
                                       + MP({m1 + m2: c1 * c2}))
    return PS(a.param, coeffs, ram, trunc)


def _assert_product(a, b):
    prod = a * b
    ref = schoolbook_mul(a, b)
    assert (prod.ram, prod.coeffs, prod.trunc) == (ref.ram, ref.coeffs,
                                                   ref.trunc)
    assert all(F(k, prod.ram) < prod.trunc for k in prod.coeffs)
    assert all(not poly.is_zero() for poly in prod.coeffs.values())
    return prod


def test_fused_product_matches_schoolbook():
    rng = random.Random(7)
    symbols = [("@i", [1]), ("@r2", [5, 7, 9, 11]), ("x", [-2, -1, 1, 2]),
               ("y", [F(-1, 2), F(1, 3), F(3, 2)])]

    def rand_coeff():
        poly = MP()
        for _ in range(rng.randint(1, 3)):
            pairs = [(sym, rng.choice(exps)) for sym, exps in symbols
                     if rng.random() < 0.4]
            poly = poly + MP.monomial(F(rng.randint(-3, 3), rng.randint(1, 3)),
                                      pairs)
        return poly

    def rand_series():
        ram = rng.choice([1, 2, 3, 6])
        coeffs = {rng.randint(-4 * ram, 3 * ram): rand_coeff()
                  for _ in range(rng.randint(0, 4))}
        # finite truncations sit on the grids of every ram, so some k1 + k2
        # lands exactly on the product's truncation
        trunc = rng.choice([INF, F(rng.randint(-6, 24), 6)])
        return PS("t", {k: v for k, v in coeffs.items()
                        if trunc == INF or F(k, ram) < trunc}, ram, trunc)

    for _ in range(300):
        _assert_product(rand_series(), rand_series())


def test_product_memo_is_symmetric():
    """``a * b`` and ``b * a`` have identical integer forms, and a monomial
    product formed in one order is memoized under both."""
    from tautrel import puiseux
    # exponents of "w" no other test uses, so the products are memo misses
    w = MP.monomial(F(3, 5), [("@i", 1), ("w", F(2, 7))])
    u = MP.monomial(-2, [("@r2", 7), ("w", F(-1, 3))])
    a = PS("t", {-1: w + MP.var("@r2", 5), 2: u}, 2, trunc=F(9, 2))
    b = PS("t", {0: u * w, 1: MP.monomial(2, [("@i", 1), ("@r2", 11)])}, 3,
           trunc=4)
    ab = a * b
    for i in {i for _, i, _ in a.terms}:
        for j in {j for _, j, _ in b.terms}:
            assert puiseux._PRODUCTS[j][i] == puiseux._PRODUCTS[i][j]
    ba = b * a
    assert ab.terms and (ab.ram, ab.trunc, ab.terms, ab.den) == (
        ba.ram, ba.trunc, ba.terms, ba.den)


def test_fused_product_edge_cases():
    t = PS.unit("t", 1)
    half = PS.unit("t", F(1, 2))
    i, x = MP.var("@i"), MP.var("x")
    # k1 + k2 on the truncation is excluded: t^2 * t lands on O(t^3)
    a = PS("t", {1: 1, 4: 1}, 2, trunc=3)
    b = PS("t", {0: 1, 1: 1}, 1, trunc=3)
    prod = _assert_product(a, b)
    assert prod.trunc == 3 and prod.support() == [F(1, 2), F(3, 2), 2]
    # one exponent cancels, and the ramification drops back to 1
    prod = _assert_product(1 + half, 1 - half)
    assert prod == PS.from_poly(MP.const(1) - MP.var("t"), "t")
    # @i coefficients wrap past @i^2 = -1, the t^1 coefficient cancels
    prod = _assert_product(PS.const(x, "t") + t * i, PS.const(x, "t") - t * i)
    assert prod == PS.from_poly(x * x + MP.var("t") ** 2, "t")
    assert _assert_product(PS.unit("t", 1, MP.var("@r2", 7)),
                           PS.unit("t", F(1, 3), MP.var("@r2", 9))) \
        == PS.unit("t", F(4, 3), MP.monomial(2, [("@r2", 4)]))
    # a nonzero product keeps its leading term, so a zero product needs a
    # zero operand; it comes back with ram 1
    zero = PS.zero("t", trunc=F(1, 3))
    sixth = PS("t", {-1: x, 5: 1}, 6, trunc=F(7, 6))
    for a, b in ((zero, sixth), (sixth, zero), (PS.zero("t"), sixth)):
        prod = _assert_product(a, b)
        assert prod.is_zero() and prod.ram == 1
    assert (zero * sixth).trunc == F(1, 6)
    assert (PS.zero("t") * sixth).trunc == INF


# -- integer kernel against a Fraction reference --------------------------
# A reference series is ({Fraction exponent: MultiPoly}, trunc), computed term
# by term over Fraction and MultiPoly; the kernel's integer form must agree.

KERNEL_SYMBOLS = [("@i", [1]), ("@r2", range(1, 12)), ("@r3", range(1, 12)),
                  ("x", [-2, -1, 1, 2]), ("y", [F(-1, 2), F(1, 2), F(3, 2)])]


def _ref_drop_zeros(ref):
    return {e: p for e, p in ref.items() if not p.is_zero()}


def _ref_ram(ref):
    ram = 1
    for e in ref:
        ram = ram * e.denominator // gcd(ram, e.denominator)
    return ram


def _ref_mul(a, ta, b, tb):
    oa = min(a) if a else ta
    ob = min(b) if b else tb
    trunc = min(ta + ob, tb + oa)
    out = {}
    for e1, p1 in a.items():
        for e2, p2 in b.items():
            if e1 + e2 >= trunc:
                continue
            for m1, c1 in p1.terms.items():
                for m2, c2 in p2.terms.items():
                    out[e1 + e2] = (out.get(e1 + e2, MP())
                                    + MP({m1 + m2: c1 * c2}))
    return _ref_drop_zeros(out), trunc


def _ref_add(a, ta, b, tb, sign):
    trunc = min(ta, tb)
    out = {e: p for e, p in a.items() if e < trunc}
    for e, p in b.items():
        if e < trunc:
            out[e] = out.get(e, MP()) + MP({m: sign * c
                                             for m, c in p.terms.items()})
    return _ref_drop_zeros(out), trunc


def _ref_str(ref, trunc):
    def exp_text(e):
        return str(e) if e.denominator == 1 else "(%s)" % e
    parts = []
    for e in sorted(ref):
        cs = str(ref[e])
        if len(ref[e].terms) > 1:
            cs = "(%s)" % cs
        if e == 0:
            parts.append(cs)
        else:
            base = "t^" + exp_text(e)
            parts.append(base if cs == "1" else "%s*%s" % (cs, base))
    if trunc != INF:
        parts.append("O(t^%s)" % exp_text(trunc))
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _ref_series(ref, trunc):
    ram = _ref_ram(ref)
    return PS("t", {int(e * ram): p for e, p in ref.items()}, ram, trunc)


def _assert_kernel(got, ref, trunc):
    ram = _ref_ram(ref)
    assert (got.ram, got.trunc) == (ram, trunc)
    assert got.coeffs == {int(e * ram): p for e, p in ref.items()}
    assert str(got) == _ref_str(ref, trunc)
    assert got == _ref_series(ref, trunc)
    # normal form: positive denominator prime to all numerators, no zeros
    nums = [n for _, _, n in got.terms]
    assert got.den > 0 and all(nums) and gcd(got.den, *nums) == 1


def _rand_kernel_ref(rng):
    """A seeded reference series: ram 1, 2 or 3, up to five coefficients of
    one or two monomials over KERNEL_SYMBOLS, denominators up to 35, and a
    finite truncation one time in three."""
    def rand_poly():
        poly = MP()
        for _ in range(rng.randint(1, 2)):
            pairs = [(sym, rng.choice(list(exps))) for sym, exps
                     in KERNEL_SYMBOLS if rng.random() < 0.45]
            coeff = F(rng.choice([-9, -4, -2, -1, 1, 3, 5, 8]),
                      rng.choice([1, 2, 3, 4, 6, 9, 12, 35]))
            poly = poly + MP.monomial(coeff, pairs)
        return poly

    ram = rng.choice([1, 2, 3])
    trunc = rng.choice([INF, INF, F(rng.randint(-12, 24), 6)])
    ref = {}
    for _ in range(rng.choice([0, 1, 2, 3, 4, 5])):
        e = F(rng.randint(-3 * ram, 3 * ram), ram)
        if e < trunc:
            ref[e] = rand_poly()
    return _ref_drop_zeros(ref), trunc


def test_integer_kernel_matches_fraction_reference():
    rng = random.Random(12)
    rams = set()
    for _ in range(250):
        (a, ta), (b, tb) = _rand_kernel_ref(rng), _rand_kernel_ref(rng)
        sa, sb = _ref_series(a, ta), _ref_series(b, tb)
        rams.add(sa.ram)
        _assert_kernel(sa * sb, *_ref_mul(a, ta, b, tb))
        _assert_kernel(sa + sb, *_ref_add(a, ta, b, tb, 1))
        _assert_kernel(sa - sb, *_ref_add(a, ta, b, tb, -1))
        c = F(rng.randint(-4, 4), rng.randint(1, 6))
        _assert_kernel(sa * c, *_ref_mul(a, ta, {F(0): MP.const(c)} if c
                                         else {}, INF))
        # full cancellation, against a negative built from the reference
        neg = _ref_series({e: -p for e, p in a.items()}, ta)
        _assert_kernel(sa + neg, {}, ta)
        _assert_kernel(sa - sa, {}, ta)
    assert rams == {1, 2, 3}


def test_sum_of_products_matches_products_and_sums():
    # Each list of 1-6 pairs is summed once by the kernel, and pair by pair
    # both through __mul__ and + and through the Fraction reference.
    rng = random.Random(15)

    def negated(ref):
        return {e: -p for e, p in ref[0].items()}, ref[1]

    seen = {"cancelled": 0, "zero product": 0, "rams": set()}
    for _ in range(200):
        refs = []
        for _ in range(rng.randint(1, 6)):
            a, b = _rand_kernel_ref(rng), _rand_kernel_ref(rng)
            refs.append((a, b))
            if rng.random() < 0.2:
                # cancels the pair just drawn
                refs.append((negated(a), b))
        if rng.random() < 0.25:
            # zero to a finite truncation: the product is zero below
            # t + ord b, and that bounds the sum
            zero = {}, F(rng.randint(-6, 12), 6)
            refs.insert(rng.randint(0, len(refs)),
                        (zero, _rand_kernel_ref(rng)))
        pairs = [(_ref_series(*a), _ref_series(*b)) for a, b in refs]
        got = PS.sum_of_products(pairs, "t")
        want, ref = PS.zero("t"), ({}, INF)
        for (x, y), (a, b) in zip(pairs, refs):
            prod = x * y
            want = want + prod
            ref = _ref_add(*ref, *_ref_mul(*a, *b), 1)
            assert got.trunc <= prod.trunc
            seen["zero product"] += prod.is_zero() and prod.trunc != INF
            seen["rams"].add(x.ram)
        assert got.trunc == min((x * y).trunc for x, y in pairs)
        assert (got.ram, got.den, got.terms, got.trunc) == (
            want.ram, want.den, want.terms, want.trunc)
        assert got == want and str(got) == str(want)
        _assert_kernel(got, *ref)
        seen["cancelled"] += got.is_zero() and all(
            not (x * y).is_zero() for x, y in pairs)
    assert seen["cancelled"] and seen["zero product"]
    assert seen["rams"] == {1, 2, 3}
    # no pairs: the exact zero in the given parameter
    assert PS.sum_of_products([], "t") == PS.zero("t")


def test_sum_of_products_checks_parameters():
    # every operand of every pair must carry the target parameter
    t, s = PS.unit("t", 1), PS.unit("s", 1)
    assert PS.sum_of_products([(t, t)], "t") == PS.unit("t", 2)
    with pytest.raises(ValueError, match="parameter mismatch"):
        PS.sum_of_products([(t, t), (t, s)], "t")
    with pytest.raises(ValueError, match="parameter mismatch"):
        PS.sum_of_products([(t, t)], "s")
    # every series carries its parameter: sums and products check it, a
    # constant takes it, and series in different parameters are unequal
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
        with pytest.raises(ValueError, match="parameter mismatch"):
            op(t, s)
    assert t != PS.unit("s", 1) and t + 1 == PS.const(1, "t") + t
    with pytest.raises(ValueError, match="coefficient contains the param"):
        t + MP.var("t")


# -- the term tuple against the former nested-dict kernel ------------------
# The kernel before the term tuple, kept as a reference: per grid index a map
# from monomial id to numerator, a truncation pass over every pair, then a
# product pass over every pair of indices, each checked against the cap.

def _nested(s):
    """The former form of a series: ``{k: {id: n}}``."""
    num = {}
    for k, i, n in s.terms:
        num.setdefault(k, {})[i] = n
    return num


def _ref_truncation(pairs, ram):
    x = y = None
    for a, b in pairs:
        for t, s in ((a.trunc, b), (b.trunc, a)):
            if t == INF:
                continue
            tn, d = t.numerator, t.denominator
            num = _nested(s)
            if num:
                n = tn * ram + min(num) * (ram // s.ram) * d
            elif s.trunc == INF:
                continue
            else:
                u = s.trunc
                n = (tn * u.denominator + u.numerator * d) * ram
                d *= u.denominator
            if x is None or n * y < x * d:
                x, y = n, d
    if x is None:
        return INF, INF
    return F(x, y * ram), -(-x // y)


def _ref_add_product(sums, a, fa, b, fb, kcap, scale):
    from tautrel import puiseux
    for k1, t1 in a.items():
        for k2, t2 in b.items():
            k = k1 * fa + k2 * fb
            if k >= kcap:
                continue
            acc = sums.setdefault(k, {})
            for i1, c1 in t1.items():
                for i2, c2 in t2.items():
                    i, f = puiseux._product(i1, i2)
                    acc[i] = acc.get(i, 0) + c1 * scale * c2 * f


def _ref_sum_of_products(pairs):
    """``(ram, den, terms, trunc)`` of the sum of the products over
    ``pairs``, by the nested-dict kernel."""
    ram = den = 1
    for a, b in pairs:
        ram = lcm(ram, a.ram, b.ram)
        den = lcm(den, a.den * b.den)
    trunc, kcap = _ref_truncation(pairs, ram)
    sums = {}
    for a, b in pairs:
        _ref_add_product(sums, _nested(a), ram // a.ram, _nested(b),
                         ram // b.ram, kcap, den // (a.den * b.den))
    num = {k: {i: c for i, c in t.items() if c} for k, t in sums.items()}
    num = {k: t for k, t in num.items() if t}
    if not num:
        return 1, 1, (), trunc
    g = gcd(ram, *num)
    h = gcd(den, *(c for t in num.values() for c in t.values()))
    terms = sorted((k // g, i, c // h) for k, t in num.items()
                   for i, c in t.items())
    return ram // g, den // h, tuple(terms), trunc


TUPLE_SYMBOLS = [("@i", [1]), ("@r2", range(1, 12)), ("x", [-1, 1, 2]),
                 ("y", [F(1, 2), F(-3, 2), F(2, 3)])]


def _rand_poly(rng, size):
    poly = MP()
    while len(poly.terms) < size:
        pairs = [(sym, rng.choice(list(exps))) for sym, exps in TUPLE_SYMBOLS
                 if rng.random() < 0.5]
        poly = poly + MP.monomial(F(rng.choice([-5, -2, -1, 1, 3, 4]),
                                    rng.choice([1, 2, 3, 5, 7])), pairs)
    return poly


def _rand_operand(rng):
    """A seeded series: zero to a finite or infinite truncation, an exact
    monomial, or up to six coefficients of one to three monomials; ram 1-4,
    finite truncations on the grid of 1/12."""
    ram = rng.choice([1, 2, 3, 4])
    trunc = rng.choice([INF, F(rng.randint(-24, 72), 12)])
    kind = rng.random()
    if kind < 0.1:
        return PS.zero("t", trunc=trunc)
    if kind < 0.25:
        return PS.unit("t", F(rng.randint(-4 * ram, 4 * ram), ram),
                       _rand_poly(rng, 1))
    coeffs = {rng.randint(-3 * ram, 5 * ram): _rand_poly(rng, rng.choice(
        [1, 1, 1, 2, 3])) for _ in range(rng.randint(1, 6))}
    return PS("t", coeffs, ram, trunc)


def test_kernel_matches_nested_dict_reference():
    """``sum_of_products`` on the term tuple gives the former kernel's
    (ram, den, terms, trunc) on seeded pair lists."""
    rng = random.Random(28)
    seen = {"zero finite": 0, "zero exact": 0, "exact monomial": 0,
            "cancelled": 0, "on the cap": 0, "relation factor": 0,
            "rams": set()}
    for _ in range(400):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            a, b = _rand_operand(rng), _rand_operand(rng)
            pairs.append((a, b))
            if rng.random() < 0.25:
                pairs.append((a, -b) if rng.random() < 0.5 else (-a, b))
        got = PS.sum_of_products(pairs, "t")
        assert (got.ram, got.den, got.terms, got.trunc) == \
            _ref_sum_of_products(pairs)
        ops = [s for p in pairs for s in p]
        seen["rams"] |= {s.ram for s in ops}
        seen["zero finite"] += any(s.is_zero() and s.trunc != INF
                                   for s in ops)
        seen["zero exact"] += any(s.is_zero() and s.trunc == INF for s in ops)
        seen["exact monomial"] += any(len(s.terms) == 1 and s.trunc == INF
                                      for s in ops)
        seen["cancelled"] += got.is_zero() and any(
            not (a * b).is_zero() for a, b in pairs)
        seen["relation factor"] += any(
            len(c.terms) > 1 and any(sym[0] == "@" for m in c.terms
                                     for sym, _ in m)
            for s in ops for c in s.coeffs.values())
        if got.trunc != INF:
            kcap = got.trunc * lcm(*(s.ram for s in ops))
            seen["on the cap"] += kcap.denominator == 1 and any(
                F(k1, a.ram) + F(k2, b.ram) == got.trunc
                for a, b in pairs for k1, _, _ in a.terms
                for k2, _, _ in b.terms)
    assert all(seen.values()), seen
    assert seen["rams"] == {1, 2, 3, 4}


def test_term_tuple_normal_form():
    """Triples strictly increasing in (k, id), no zero numerator, den and ram
    prime to the numerators and to the indices, ``tq`` the truncation; equal
    series built different ways have equal tuples."""
    rng = random.Random(29)

    def check(s):
        keys = [(k, i) for k, i, _ in s.terms]
        assert all(p < q for p, q in zip(keys, keys[1:]))
        nums = [n for _, _, n in s.terms]
        assert all(nums) and s.den > 0 and gcd(s.den, *nums) == 1
        assert gcd(s.ram, *(k for k, _ in keys)) == 1
        assert s.tq == (None if s.trunc == INF
                        else (s.trunc.numerator, s.trunc.denominator))

    for _ in range(200):
        a, b = _rand_operand(rng), _rand_operand(rng)
        c = F(rng.randint(-4, 4), rng.randint(1, 5))
        for s in (a, b, a * b, a + b, a - b, -a, a * c, a.derivative(),
                  a.derivative_sym("y"), a.truncate(F(rng.randint(-6, 18), 4)),
                  PS.sum_of_products([(a, b), (b, a)], "t")):
            check(s)
        assert (a * b).terms == (b * a).terms
        assert PS("t", {3 * k: v for k, v in a.coeffs.items()}, a.ram * 3,
                  a.trunc).terms == a.terms
        assert ((a + b) - b).terms == a.truncate(b.trunc).terms
        assert (a + a).terms == (a * 2).terms
    # a finer grid than the support needs is dropped
    assert PS("t", {2: 1, -4: 3}, 4) == PS("t", {1: 1, -2: 3}, 2)
    assert PS("t", {2: 1, -4: 3}, 4).terms == ((-2, 0, 3), (1, 0, 1))


def test_derivative_sym_matches_coeffs_round_trip():
    """``derivative_sym`` on the term tuple equals the derivative of each
    ``coeffs`` entry built back into a series, fractional exponents and
    @-symbols included."""
    rng = random.Random(30)
    fractional = nonzero = 0
    for _ in range(200):
        s = _rand_operand(rng)
        for sym in ("x", "y", "@i", "@r2", "z"):
            got = s.derivative_sym(sym)
            want = PS("t", {k: v.derivative(sym)
                            for k, v in s.coeffs.items()}, s.ram, s.trunc)
            assert (got.ram, got.den, got.terms, got.trunc) == (
                want.ram, want.den, want.terms, want.trunc)
            assert str(got) == str(want)
            nonzero += not got.is_zero()
            fractional += sym == "y" and not got.is_zero()
    assert fractional and nonzero
    assert PS.unit("t", 2, MP.var("x")).derivative_sym("t") == \
        PS.unit("t", 1, 2 * MP.var("x"))


def test_leading_is_least_coefficient():
    # the seeded series of test_integer_kernel_matches_fraction_reference,
    # drawn in the same order
    rng = random.Random(12)
    checked = 0
    for _ in range(250):
        (a, ta), (b, tb) = _rand_kernel_ref(rng), _rand_kernel_ref(rng)
        sa, sb = _ref_series(a, ta), _ref_series(b, tb)
        for ref, s in ((a, sa), (b, sb)):
            if ref:
                assert s.leading() == ref[min(ref)]
        for s in (sa, sb, sa * sb, sa + sb):
            coeffs = s.coeffs
            if coeffs:
                assert s.leading() == coeffs[min(coeffs)]
                checked += 1
        rng.randint(-4, 4), rng.randint(1, 6)  # the scalar drawn there
    assert checked > 500


def test_integer_kernel_wraps_root_symbols():
    # @i^2 = -1, @r2^12 = 2 and @r3^12 = 3 enter as integer factors
    i, r2, r3 = MP.var("@i"), MP.var("@r2", 7), MP.var("@r3", 11)
    a = PS("t", {1: i * r2 * F(1, 6), 2: r3}, 2)
    b = PS("t", {0: i * MP.var("@r2", 5), 1: MP.var("@r3", 2) * F(3, 4)}, 1)
    prod = a * b
    assert prod.coeffs == {1: MP.const(F(-2, 6)),
                           2: MP.monomial(1, [("@i", 1), ("@r2", 5),
                                              ("@r3", 11)]),
                           3: MP.monomial(F(1, 8), [("@i", 1), ("@r2", 7),
                                                    ("@r3", 2)]),
                           4: MP.monomial(F(9, 4), [("@r3", 1)])}
    assert (prod.ram, prod.den) == (2, 24)


def test_integer_kernel_rejects_rational_relation_factor():
    # reduced monomials never give one; an unreduced @r2^-1 would give 1/2
    from tautrel import puiseux
    bad = puiseux._intern((("@r2", -1),))
    with pytest.raises(ArithmeticError, match="not integral"):
        puiseux._product(bad, 0)


def test_difference_of_squares():
    a = PS.const(1, "t") + PS.unit("t", 1)
    b = PS.const(1, "t") - PS.unit("t", 1)
    prod = a * b
    assert prod == PS.from_poly(MP.const(1) - MP.var("t") ** 2, "t")


def test_invert_geometric_ramified():
    s = PS.const(1, "t") - PS.unit("t", F(1, 2))
    inv = s.invert(trunc=F(5, 2))
    assert (inv - geometric("t", F(1, 2), 5)).is_zero()
    assert (s * inv - 1).is_zero()


def test_invert_delta1_leading_exponent():
    eta0, eta1 = MP.var("eta0"), MP.var("eta1")
    num = PS.unit("t", F(1, 2), 2)
    den = PS.const(eta1, "t") + PS.unit("t", F(1, 2), eta0)
    delta1 = num * den.invert(trunc=4)
    inv = delta1.invert()
    assert inv.order() == F(-1, 2)
    assert (delta1 * inv - 1).is_zero()


def test_non_unit_leading_term_error():
    s = PS.const(MP.var("eta0") + 1, "t")
    with pytest.raises(NonUnitError, match="non-unit leading term"):
        s.invert(trunc=3)


def test_series_order():
    s = PS.unit("t", 2) + PS.unit("t", 3)
    assert s.order() == 2
    z = PS.zero("t", trunc=F(7, 2))
    assert z.order() is None
    assert z.order_or_trunc() == F(7, 2)


def test_nth_root_examples():
    assert PS.unit("t", 2).sqrt() == PS.unit("t", 1)
    # cube root of a monomial with coefficient 3/4 * zeta3
    mono = PS.unit("t", F(3, 2), MP.const(F(3, 4)) * MP.var("zeta3"))
    root = mono.nth_root(3)
    assert ((root ** 3) - mono).is_zero()
    assert root.order() == F(1, 2)
    # sqrt(1 + t x) against the binomial oracle
    x = MP.var("x")
    s = PS.const(1, "t") + PS.unit("t", 1, x)
    got = s.sqrt(trunc=5)
    assert (got - binomial_sqrt("t", x, 5)).is_zero()


def test_nth_root_randomized_property():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.choice([2, 3])
        terms = {0: MP.const(1)}
        for k in range(1, rng.randint(2, 4)):
            terms[k] = MP.const(F(rng.randint(-3, 3), rng.randint(1, 2)))
        s = PS("t", terms, 1, trunc=4)
        root = s.nth_root(n)
        assert ((root ** n) - s).is_zero()


# -- the power recurrence against the former Newton iterations -------------
# invert and nth_root before the power recurrence, kept as a reference:
# Newton's x -> x(2 - vx) for 1/v, and y -> y + (s - y^n) / (n y^(n-1)) for
# the root, each correction formed by a further Newton inverse.

def _newton_invert(s, trunc=None):
    o = s.order()
    if o is None:
        raise ZeroDivisionError("inversion of a series that is zero to truncation")
    lead = s.leading()
    if not lead.is_monomial():
        raise NonUnitError("non-unit leading term: %s" % lead)
    if s.trunc == INF and len(s.terms) == 1:
        out = PS.unit(s.param, -o, lead.inverse())
        return out if trunc is None else out.truncate(trunc)
    if s.trunc == INF:
        if trunc is None:
            raise ValueError("inversion of exact non-monomial series needs a target truncation")
        t_res = F(trunc)
    else:
        t_res = s.trunc - 2 * o
        if trunc is not None:
            t_res = min(t_res, F(trunc))
    t_x = t_res + o
    mono_inv = PS.unit(s.param, -o, lead.inverse())
    v = (s * mono_inv).truncate(t_x)
    x = PS.const(1, s.param, trunc=t_x)
    while True:
        vx = v * x
        if (vx - 1).truncate(t_x).is_zero():
            break
        x = (x * (2 - vx)).truncate(t_x)
    return x * mono_inv


def _newton_nth_root(s, n, trunc=None):
    o = s.order()
    if o is None:
        raise ValueError("root of a series that is zero to truncation")
    lead = s.leading()
    if not lead.is_monomial():
        raise NonUnitError("non-unit leading term: %s" % lead)
    root_exp = o / n
    mono = PS.unit(s.param, root_exp, monomial_power(lead, F(1, n)))
    if len(s.terms) == 1 and s.trunc == INF:
        return mono if trunc is None else mono.truncate(trunc)
    if s.trunc == INF:
        if trunc is None:
            raise ValueError("root of exact non-monomial series needs a target truncation")
        t_res = F(trunc)
    else:
        t_res = s.trunc - o + root_exp
        if trunc is not None:
            t_res = min(t_res, F(trunc))
    t_resid = t_res + (n - 1) * root_exp
    known = s.truncate(t_resid)
    y = mono.truncate(t_res)
    while True:
        resid = (known - y ** n).truncate(t_resid)
        if resid.is_zero():
            break
        corr = _newton_invert(y ** (n - 1), trunc=t_res - o + root_exp) \
            * resid * F(1, n)
        y = (y + corr).truncate(t_res)
    return y


POWER_SYMBOLS = [("@i", [1]), ("@r3", range(1, 12)),
                 ("zeta3", [-2, -1, 1, 2]), ("x", [-1, 1, 2])]


def _rand_power_coeff(rng, size):
    poly = MP()
    while len(poly.terms) < size:
        pairs = [(sym, rng.choice(list(exps))) for sym, exps in POWER_SYMBOLS
                 if rng.random() < 0.5]
        poly = poly + MP.monomial(F(rng.choice([-3, -1, 1, 2, 5]),
                                    rng.choice([1, 2, 3, 4])), pairs)
    return poly


def _rand_power_lead(rng, n):
    """A monomial with a branch of its n-th root (n = 1: any monomial)."""
    if n == 1:
        return _rand_power_coeff(rng, 1)
    # (-1)^(1/4) has no branch, and @i^(1/n) none for n > 1
    sign = -1 if n < 4 and rng.random() < 0.5 else 1
    pairs = [("zeta3", rng.choice([-2, -1, 1, 2])), ("x", rng.choice([-1, 1])),
             ("@r3", n * rng.randint(0, 11 // n))]
    pairs = [p for p in pairs if rng.random() < 0.6]
    return MP.monomial(sign * F(rng.choice([1, 2, 3, 4, 9]),
                                rng.choice([1, 2, 3, 4])), pairs)


def _rand_power_case(rng):
    """(n, series, trunc target): n = 1 stands for invert; ram 1-3, order
    -3 to 3, exact or finite truncation, with or without a target."""
    n = rng.choice([1, 1, 2, 3, 4])
    ram = rng.choice([1, 2, 3])
    k0 = rng.randint(-3 * ram, 3 * ram)
    kind = rng.random()
    if kind < 0.04:
        s = PS.zero("t", trunc=F(k0, ram))
    else:
        lead = (_rand_power_lead(rng, n) if kind > 0.08
                else _rand_power_coeff(rng, 2))
        coeffs = {k0: lead}
        if rng.random() < 0.9:
            for _ in range(rng.randint(1, 5)):
                coeffs[k0 + rng.randint(1, 3 * ram)] = _rand_power_coeff(
                    rng, rng.choice([1, 1, 2]))
        exact = rng.random() < 0.25
        trunc = INF if exact else F(k0, ram) + F(rng.randint(1, 48), 12)
        s = PS("t", coeffs, ram, trunc)
    target = None
    if s.trunc == INF or rng.random() < 0.4:
        if rng.random() < 0.9:
            target = F(k0, ram) + F(rng.randint(-6, 36), 12)
    return n, s, target


def _power_call(fn, *args):
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def test_power_recurrence_matches_newton_reference():
    """invert and nth_root (n = 2, 3, 4) give the former Newton result in
    terms, den, ram and trunc wherever Newton meets its stated truncation,
    and raise as it did; where it falls short, the new result truncates to
    Newton's and solves y s = 1 or y^n = s to its full truncation."""
    rng = random.Random(31)
    seen = {"met": 0, "short": 0, "exact": 0, "target": 0,
            "exact monomial": 0, "relation": 0, "raised": set(), "ns": set(),
            "rams": set(), "orders": set()}
    for _ in range(400):
        n, s, target = _rand_power_case(rng)
        if n == 1:
            got = _power_call(s.invert, target)
            want = _power_call(_newton_invert, s, target)
        else:
            got = _power_call(s.nth_root, n, target)
            want = _power_call(_newton_nth_root, s, n, target)
        if isinstance(want, tuple):
            assert got == want
            seen["raised"].add(want[0])
            continue
        o = s.order()
        stated = INF if s.trunc == INF else s.trunc - o + o * (
            -1 if n == 1 else F(1, n))
        if target is not None:
            stated = min(stated, F(target))
        assert got.trunc == stated
        if want.trunc == stated:
            assert (got.terms, got.den, got.ram, got.trunc) == \
                (want.terms, want.den, want.ram, want.trunc)
            seen["met"] += 1
        else:
            assert want.trunc < stated
            assert got.truncate(want.trunc) == want
            check = s * got - 1 if n == 1 else got ** n - s
            assert check.is_zero()
            seen["short"] += 1
        seen["ns"].add(n)
        seen["rams"].add(s.ram)
        seen["orders"].add(o)
        seen["exact"] += s.trunc == INF
        seen["target"] += target is not None
        seen["exact monomial"] += len(s.terms) == 1 and s.trunc == INF
        seen["relation"] += any(sym in ("@i", "@r3") for c in s.coeffs.values()
                                for m in c.terms for sym, _ in m)
    assert all(seen.values()), seen
    assert seen["ns"] == {1, 2, 3, 4} and seen["rams"] == {1, 2, 3}
    assert seen["raised"] == {ZeroDivisionError, NonUnitError, ValueError}
    assert {F(k) for k in range(-3, 4)} <= seen["orders"]


def test_power_raises_when_normalization_fails(monkeypatch):
    """A leading monomial whose inverse does not cancel it is an error, not a
    computed series."""
    s = PS("t", {0: MP.var("x"), 1: MP.const(1)}, 1, trunc=4)
    inverse = MP.inverse
    monkeypatch.setattr(MP, "inverse", lambda self: inverse(self) * 2)
    with pytest.raises(ArithmeticError, match="does not start with exactly 1"):
        s.invert()
    with pytest.raises(ArithmeticError, match="does not start with exactly 1"):
        s.sqrt()


def test_nth_root_meets_its_truncation_at_negative_order():
    """Roots of series of negative order are known below T - o + o/n, and a
    target truncation is met in full."""
    s = PS("t", {-3: 1, -2: 1}, 2, trunc=F(3, 2))
    root = s.sqrt()
    assert root.trunc == F(9, 4)
    assert str(root).endswith("+ 7/256*t^(7/4) + O(t^(9/4))")
    assert (root ** 2 - s).is_zero()
    s = PS("t", {-3: -MP.var("x"), -2: F(1, 3)}, 1, trunc=6)
    root = s.sqrt(trunc=0)
    assert str(root) == ("@i*x^(1/2)*t^(-3/2)"
                         " - 1/6*@i*x^(-1/2)*t^(-1/2) + O(t^0)")
    assert (root ** 2 - s.truncate(F(3, 2))).is_zero()


def test_truncation_monotonicity():
    x = MP.var("x")
    exact = PS.const(1, "t") + PS.unit("t", 1, x)
    low = exact.truncate(3).sqrt()
    high = exact.truncate(6).sqrt()
    for e in low.support():
        assert low.coefficient(e) == high.coefficient(e)


def test_ring_axioms_randomized():
    rng = random.Random(3)

    def rand_series():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[rng.randint(-2, 6)] = MP.const(F(rng.randint(-4, 4), rng.randint(1, 3)))
        return PS("t", terms, rng.choice([1, 2]), trunc=rng.choice([4, 5, INF]))

    for _ in range(60):
        a, b, c = rand_series(), rand_series(), rand_series()
        lhs = (a * b) * c
        rhs = a * (b * c)
        assert (lhs - rhs).is_zero()
        assert ((a + b) * c - (a * c + b * c)).is_zero()


def test_derivative_antiderivative_roundtrip():
    s = PS.unit("t", F(1, 2)) + PS.unit("t", 2, 3)
    assert (s.antiderivative().derivative() - s).is_zero()


def test_matrix_ops():
    two = PS.const(2, "t")
    tt = PS.unit("t", 1, 2)
    m = SeriesMatrix([[two, PS.zero("t")], [PS.zero("t"), tt]])
    assert m.det() == PS.unit("t", 1, 4)
    inv = m.inverse()
    assert (m * inv - SeriesMatrix.identity(2, "t")).is_zero()
    ident = SeriesMatrix.identity(2, "t")
    assert (ident * m - m).is_zero()


def test_psi0_inverse_matches_closed_form():
    # the closed-form inverse of the eq:Psi0 upper block
    t_half = PS.unit("t", F(1, 2))
    p = (t_half * 2).sqrt()
    q = (t_half * (-2)).sqrt()
    p_inv, q_inv = p.invert(), q.invert()
    psi0 = SeriesMatrix([[t_half * p_inv, -t_half * q_inv], [p_inv, q_inv]])
    closed = SeriesMatrix([[p_inv, t_half * p_inv], [q_inv, -t_half * q_inv]])
    assert (psi0 * closed - SeriesMatrix.identity(2, "t")).is_zero()
    computed = psi0.inverse()
    assert (computed - closed).is_zero()


def test_singular_matrix_error():
    t = PS.unit("t", 1)
    m = SeriesMatrix([[t, t], [t, t]])
    with pytest.raises(NonUnitError, match="singular"):
        m.inverse()


def test_canonical_text_form():
    s = PS.unit("t", F(3, 2), F(2, 3)) + PS.const(MP.var("t0"), "t")
    assert str(s.truncate(5)) == "t0 + 2/3*t^(3/2) + O(t^5)"
