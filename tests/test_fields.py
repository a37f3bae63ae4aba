"""Exact field arithmetic: canonical forms, axioms, parsing, moduli."""

import itertools
import random
import time
import pytest
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from lenalg import ExtensionField, PrimeField, fields, make_field, make_fixture
from lenalg.errors import (
    CharacteristicTwo,
    InfiniteFieldUnsupported,
    NonPrimeModulus,
    ReducibleModulus,
    UnsupportedExtension,
)
from lenalg.linalg import _echelon_extend, in_span

ALL_FINITE = ["F2", "F3", "F5", "F7", "GF4", "GF8", "GF9"]


def test_gf2_elements_and_characteristic():
    F2 = make_field("F2")
    assert list(F2.elements()) == [0, 1]
    assert F2.characteristic() == 2
    assert F2.is_two_element_field()


def test_gf4_generator_square():
    G4 = make_field("GF4")
    x = (0, 1)
    assert G4.mul(x, x) == (1, 1)  # x^2 = x + 1 modulo x^2 + x + 1
    assert not G4.is_two_element_field()
    assert G4.characteristic() == 2


def test_rational_arithmetic():
    Q = make_field("Q")
    assert Q.add(Q.parse("1/2"), Q.parse("1/3")) == Fraction(5, 6)
    assert Q.render(Fraction(5, 6)) == "5/6"
    assert Q.characteristic() == 0
    with pytest.raises(InfiniteFieldUnsupported):
        list(Q.elements())


def test_halve():
    Q = make_field("Q")
    F3 = make_field("F3")
    F2 = make_field("F2")
    assert Q.halve(Q.one) == Fraction(1, 2)
    assert F3.halve(1) == 2  # 2 * 2 = 4 = 1 in F3
    with pytest.raises(CharacteristicTwo):
        F2.halve(1)
    with pytest.raises(CharacteristicTwo):
        make_field("GF4").halve((1, 0))


@pytest.mark.parametrize("name", ALL_FINITE)
def test_finite_field_axioms(name):
    F = make_field(name)
    elems = list(F.elements())
    assert len(elems) == F.order()
    assert len(set(elems)) == F.order()
    for a in elems:
        assert F.add(a, F.zero) == a
        assert F.mul(a, F.one) == a
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    # characteristic times one vanishes
    s = F.zero
    for _ in range(F.characteristic()):
        s = F.add(s, F.one)
    assert s == F.zero


@pytest.mark.parametrize("name", ALL_FINITE)
def test_finite_distributivity_sample(name):
    F = make_field(name)
    elems = list(F.elements())
    for a in elems:
        for b in elems:
            assert F.mul(a, b) == F.mul(b, a)
            for c in elems[:3]:
                lhs = F.mul(a, F.add(b, c))
                rhs = F.add(F.mul(a, b), F.mul(a, c))
                assert lhs == rhs


@pytest.mark.parametrize("name", ALL_FINITE)
def test_render_parse_round_trip_finite(name):
    F = make_field(name)
    for v in F.elements():
        assert F.parse(F.render(v)) == v


@given(num=st.integers(-10**6, 10**6), den=st.integers(1, 10**6))
def test_render_parse_round_trip_rationals(num, den):
    Q = make_field("Q")
    v = Fraction(num, den)
    assert Q.parse(Q.render(v)) == v


@pytest.mark.parametrize("text", ["0", "-0", "+7", "007", "-349/6", "+12/8",
                                  "0/5", "-10/100", " 3/4 ", str(-10**30) + "/7"])
def test_rational_parse_equals_fraction_of_the_text(text):
    value = make_field("Q").parse(text)
    assert type(value) is Fraction and value == Fraction(text.strip())


def test_rational_parse_rejects_floats():
    Q = make_field("Q")
    with pytest.raises(ValueError):
        Q.parse("1.5")
    with pytest.raises(ValueError):
        Q.parse("a/b")


def test_prime_field_parse_reduces():
    F5 = make_field("F5")
    assert F5.parse("-1") == 4
    assert F5.parse("7") == 2


def test_extension_parse_forms():
    G4 = make_field("GF4")
    assert G4.parse("[0,1]") == (0, 1)
    assert G4.parse("[1]") == (1, 0)
    assert G4.parse("1") == (1, 0)
    with pytest.raises(ValueError):
        G4.parse("[1,0,1]")


def test_is_prime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in itertools.chain(range(5001), [561, 41041, 2047, 3215031751]):
        assert fields._is_prime(n) == sympy.isprime(n), n


def test_large_primes_build_fast_and_past_the_bound_are_refused():
    # trial division took seconds per field from about 10^12 on
    start = time.perf_counter()
    F = make_field("F1000000000000000003")
    assert time.perf_counter() - start < 0.5
    assert F.mul(F.from_int(-1), F.from_int(-1)) == 1
    with pytest.raises(NonPrimeModulus):
        PrimeField(1000000000000000003 * 1000003)
    # the least strong pseudoprime to the bases 2..37 needs the base 41
    assert fields._is_prime(318665857834031151167461) is False
    # MAX_PRIME is the least one to the bases 2..41, so the test calls it
    # prime: PrimeField refuses it and every p past it, primes included
    assert fields._is_prime(fields.MAX_PRIME) is True
    for p in (fields.MAX_PRIME, 2 ** 89 - 1):
        with pytest.raises(UnsupportedExtension):
            PrimeField(p)
    # the order bound comes first: no primality test of a huge p or power
    with pytest.raises(UnsupportedExtension):
        ExtensionField(2 ** 89 - 1, 2)
    with pytest.raises(UnsupportedExtension):
        ExtensionField(3, 10 ** 9)


def test_bad_moduli():
    with pytest.raises(NonPrimeModulus):
        PrimeField(6)
    with pytest.raises(NonPrimeModulus):
        ExtensionField(4, 2, (1, 1, 1))
    with pytest.raises(ReducibleModulus):
        ExtensionField(2, 2, (1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F2
    with pytest.raises(ReducibleModulus):
        ExtensionField(3, 2, (1, 1))  # wrong degree
    with pytest.raises(UnsupportedExtension):
        ExtensionField(2, 13)
    with pytest.raises(UnsupportedExtension):
        ExtensionField(5, 3)  # no default modulus shipped


def test_custom_modulus_accepted():
    # x^2 + x + 2 is irreducible over F3 (no roots: 2, 1+1+2=4=1, 4+2+2=8=2)
    F9 = ExtensionField(3, 2, (2, 1, 1))
    elems = list(F9.elements())
    assert len(elems) == 9
    for a in elems:
        if a != F9.zero:
            assert F9.mul(a, F9.inv(a)) == F9.one


def _mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("p, max_k", [(2, 6), (3, 4), (5, 4)])
def test_irreducible_counts_match_gauss(p, max_k):
    # Gauss: F_p has (1/k) sum_{d | k} mu(d) p^(k/d) monic irreducibles of degree k
    for k in range(1, max_k + 1):
        expected = sum(_mobius(d) * p ** (k // d)
                       for d in range(1, k + 1) if k % d == 0) // k
        found = sum(fields._poly_irreducible(tail + (1,), p)
                    for tail in itertools.product(range(p), repeat=k))
        assert found == expected, (p, k)


def test_element_order_is_payload_lexicographic():
    G4 = make_field("GF4")
    assert list(G4.elements()) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    F5 = make_field("F5")
    assert list(F5.elements()) == [0, 1, 2, 3, 4]


def test_field_equality_and_hash():
    assert make_field("GF4") == make_field("GF4")
    assert make_field("F2") != make_field("F3")
    assert hash(make_field("Q")) == hash(make_field("Q"))
    assert fields.Rationals() == make_field("Q")


def test_division_by_zero():
    Q = make_field("Q")
    F3 = make_field("F3")
    with pytest.raises(ZeroDivisionError):
        Q.div(Q.one, Q.zero)
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def _irreducible_moduli(max_order):
    """(p, k, modulus) for every irreducible monic modulus with p^k <= max_order.

    Degree one keeps only x: every monic x + c gives the same arithmetic on
    the length-one payloads (c only reduces x, which no payload holds).
    """
    out = []
    for p in range(2, max_order + 1):
        if not fields._is_prime(p):
            continue
        out.append((p, 1, (0, 1)))
        k = 2
        while p ** k <= max_order:
            for tail in itertools.product(range(p), repeat=k):
                m = tail + (1,)
                if fields._poly_irreducible(m, p):
                    out.append((p, k, m))
            k += 1
    return out


AES_MODULUS = (1, 1, 0, 1, 1, 0, 0, 0, 1)   # x^8 + x^4 + x^3 + x + 1
# x is not primitive modulo these, so the tables cannot assume g = x.
NON_PRIMITIVE_X = [(2, 8, AES_MODULUS), (2, 4, (1, 1, 1, 1, 1)), (3, 2, (1, 0, 1))]
REFERENCE_MODULI = _irreducible_moduli(64) + NON_PRIMITIVE_X[:1]


def _reference_mul(p, k, modulus, a, b):
    c = fields._poly_mod(fields._poly_mul(a, b, p), modulus, p)
    return tuple(c) + (0,) * (k - len(c))


@pytest.mark.parametrize("p, k, modulus", NON_PRIMITIVE_X)
def test_non_primitive_x_moduli_are_covered(p, k, modulus):
    assert (p, k, modulus) in REFERENCE_MODULI
    x = (0, 1) + (0,) * (k - 2)
    power, order = x, 1
    while power != (1,) + (0,) * (k - 1):
        power, order = _reference_mul(p, k, modulus, power, x), order + 1
    assert order < p ** k - 1


@pytest.mark.parametrize("p, k, modulus", REFERENCE_MODULI,
                         ids=lambda v: str(v) if isinstance(v, int)
                         else "".join(map(str, v)))
def test_extension_arithmetic_matches_polynomial_reference(p, k, modulus):
    F = ExtensionField(p, k, modulus)
    elems = list(F.elements())
    for a in elems:
        assert F.neg(a) == tuple((-x) % p for x in a)
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
        for b in elems:
            assert F.add(a, b) == tuple((x + y) % p for x, y in zip(a, b))
            assert F.sub(a, b) == tuple((x - y) % p for x, y in zip(a, b))
            assert F.mul(a, b) == _reference_mul(p, k, modulus, a, b)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)


def test_extension_construction_takes_linear_products(monkeypatch):
    calls = [0]
    poly_mul = fields._poly_mul

    def counted(a, b, p):
        calls[0] += 1
        return poly_mul(a, b, p)

    monkeypatch.setattr(fields, "_poly_mul", counted)
    for p, k, modulus in _irreducible_moduli(256):
        calls[0] = 0
        ExtensionField(p, k, modulus)
        assert calls[0] <= 8 * p ** k, (p, k, modulus, calls[0])


def _unreduced(F, a, rng):
    """The GF(p^k) payload a with every coefficient moved off [0, p) by a
    nonzero multiple of p."""
    return tuple(c + F.p * rng.choice((-1, 1, 2)) for c in a)


@pytest.mark.parametrize("name", ["GF4", "GF9"])
def test_an_unreduced_extension_coefficient_is_read_by_its_residue(name):
    # a coefficient off [0, p) is no key of the log tables; every kernel
    # reads it by its residue and returns what the reduced input gives
    F = make_field(name)
    rng = random.Random(f"unreduced|{name}")
    elems = list(F.elements())
    for a, b in itertools.product(elems, repeat=2):
        ua, ub = _unreduced(F, a, rng), _unreduced(F, b, rng)
        for op in (F.add, F.sub, F.mul):
            assert op(ua, ub) == op(a, b)
        assert F.neg(ua) == F.neg(a)
        assert F.canonical([ua, ub]) == [a, b]
        if a == F.zero:
            with pytest.raises(ZeroDivisionError):
                F.inv(ua)
        else:
            assert F.inv(ua) == F.inv(a)
    vector = lambda n: tuple(rng.choice(elems) for _ in range(n))
    moved = lambda v: tuple(_unreduced(F, a, rng) for a in v)
    for _ in range(30):
        table = [[vector(3) for _ in range(3)] for _ in range(3)]
        u, v = vector(3), vector(3)
        product = F.bilinear(table)
        assert product(moved(u), moved(v)) == product(u, v)
        unreduced_table = [[moved(cell) for cell in row] for row in table]
        assert F.bilinear(unreduced_table)(u, v) == product(u, v)
        rows = _echelon_extend(F, [], [vector(4) for _ in range(3)], 4)
        w = vector(4)
        unreduced_rows = [(k, moved(r)) for k, r in rows]
        want = F.eliminate(w, rows)
        assert F.canonical(F.eliminate(moved(w), unreduced_rows)) == want
        assert F.canonical(F.eliminate(moved(w), iter(unreduced_rows))) == want
        assert in_span(F, moved(w), [moved(r) for _, r in rows]) == in_span(
            F, w, [r for _, r in rows])
    # the two ways in: a product with the identity, and the empty span
    zero, one = F.zero, F.one
    unreduced_zero = (F.p,) + zero[1:]
    A = make_fixture("dim3-f2-type3" if F.p == 2 else "remark-repaired", field=F)
    x = (one, zero, F.from_int(-1))
    assert A.mul((one, zero, unreduced_zero), A.one) == A.mul((one, zero, zero), A.one)
    assert A.mul(moved(x), A.one) == A.mul(x, A.one) == x
    assert in_span(F, (unreduced_zero, zero, zero), [])
