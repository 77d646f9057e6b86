import random

import numpy as np
import pytest

from wiretapnc import gf
from wiretapnc.exceptions import (
    BadParameters,
    DivisionByZero,
    EntryOutOfRange,
    FieldMismatch,
    NonPrimeCharacteristic,
)
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import LOG_TABLE_CAP, FieldSpec, field_new, is_prime

SMALL_PRIME_POWERS = [
    (2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
    (11, 1), (13, 1), (2, 4), (17, 1), (19, 1), (23, 1), (5, 2),
    (3, 3), (29, 1), (31, 1), (2, 5),
]


def test_construction_rejects_bad_parameters():
    with pytest.raises(NonPrimeCharacteristic):
        field_new(6)
    with pytest.raises(NonPrimeCharacteristic):
        field_new(1)
    for p, m in ((3.0, 1), (3, 1.0), ("3", 1), (3, 0), (3, -1)):
        with pytest.raises(BadParameters):
            FieldSpec(p, m)
    with pytest.raises(BadParameters):
        field_new(3.0)


def test_field_new_is_cached():
    assert field_new(3) is field_new(3)
    assert field_new(2, 3) is field_new(2, 3)


def test_modulus_is_smallest_irreducible():
    # little-endian coefficient tuples, leading coefficient last
    assert field_new(2, 2).modulus == (1, 1, 1)       # x^2 + x + 1
    assert field_new(2, 3).modulus == (1, 1, 0, 1)    # x^3 + x + 1
    assert field_new(3, 2).modulus == (1, 0, 1)       # x^2 + 1
    assert field_new(2, 4).modulus == (1, 1, 0, 0, 1)


def test_gf7_primitive_element_and_powers():
    f = field_new(7)
    assert f.primitive_element() == 3
    assert [f.pow(3, i) for i in range(6)] == [1, 3, 2, 6, 4, 5]


# a FieldSpec made directly must take the same table path as field_new's;
# with no log tables (cap 0) extensions multiply polynomials and invert by pow
@pytest.mark.parametrize("make,p,m,cap", [
    pytest.param(make, p, m, LOG_TABLE_CAP, id=f"{prefix}{p}-{m}")
    for make, prefix in ((field_new, ""), (FieldSpec, "direct-"))
    for p, m in SMALL_PRIME_POWERS
] + [pytest.param(FieldSpec, p, m, 0, id=f"untabled-{p}-{m}")
     for p, m in ((2, 4), (3, 2), (5, 2))])
def test_field_axioms_exhaustive(monkeypatch, make, p, m, cap):
    tabled = FieldSpec(p, m)
    monkeypatch.setattr(gf, "LOG_TABLE_CAP", cap)
    f = make(p, m)
    q = f.order
    assert (f._exp is not None) == (m > 1 and q <= cap)
    assert all(f.mul(a, b) == tabled.mul(a, b) for a in range(q) for b in range(q))
    elems = range(q)
    for a in elems:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        # the row kernels of every field kind: prime, tabled and digit loops
        assert f.axpy(a, elems, elems) == [f.add(b, f.mul(a, b)) for b in elems]
        assert f.dot((a, 1, a), (a, a, 1)) == f.add(f.add(f.mul(a, a), a), a)
        if a:
            assert f.mul(a, f.inv(a)) == 1
    # commutativity and distributivity on the full triple product is O(q^3);
    # keep it exhaustive only for the smallest fields
    triple = elems if q <= 16 else range(0, q, max(1, q // 11))
    for a in triple:
        for b in triple:
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) == f.mul(b, a)
            for c in triple:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
                assert f.add(a, f.add(b, c)) == f.add(f.add(a, b), c)
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7, 11, 13) for m in range(2, 9)
                                 if p ** m <= 256])
def test_table_kernels_match_digit_loops(monkeypatch, p, m):
    """On every tabled field with q <= 256, add, neg, inv and the row
    kernels axpy, dot and scale (XOR, or Zech logarithms, and log sums) equal
    the digit loops of the same field untabled, on every pair of elements.
    Products come from the exp table, which is checked here against
    polynomial products of the primitive element."""
    f = field_new(p, m)
    monkeypatch.setattr(gf, "LOG_TABLE_CAP", 0)
    ref = FieldSpec(p, m)
    q, g = f.order, f.primitive_element()
    assert f._exp is not None and ref._exp is None
    x = 1
    for i in range(q - 1):
        assert f._exp[i] == x
        x = ref.mul(x, g)
    elems = range(q)
    assert [f.neg(a) for a in elems] == [ref.neg(a) for a in elems]
    assert [f.inv(a) for a in elems[1:]] == [ref.inv(a) for a in elems[1:]]
    for a in elems:
        assert [f.add(a, b) for b in elems] == [ref.add(a, b) for b in elems]
        assert f.scale(a, elems) == ref.scale(a, elems)
        # v[b] = a + b mod q: over all a, every (a, b) and every (v[b], b) pair is met
        v = [(a + b) % q for b in elems]
        assert f.axpy(a, elems, v) == [ref.add(x, ref.mul(a, b)) for x, b in zip(v, elems)]
        assert [f.dot((a, b, a), (b, 1, 1)) for b in elems] == [
            ref.add(ref.add(ref.mul(a, b), b), a) for b in elems]


@pytest.mark.parametrize("p,m", [(2, 8), (3, 5), (5, 3), (7, 2)])
def test_tables_equal_polynomial_powers(p, m):
    """The exp, log and Zech tables, built by adding g's products with the
    running power's low and high digit halves, equal those the powers g^i by
    polynomial products give: exp doubled then zero-padded, log with log[0] =
    2 (q - 1), and for odd p zech[i] = log(1 + g^i), doubled."""
    f = FieldSpec(p, m)
    q1, g = f.order - 1, f.primitive_element()
    powers = [1]
    while len(powers) < q1:
        powers.append(f._mul_poly(powers[-1], g))
    log = [2 * q1] * f.order
    for i, x in enumerate(powers):
        log[x] = i
    assert f._exp == powers * 2 + [0] * (2 * q1 + 1)
    assert f._log == log
    assert f._zech == (None if p == 2 else [log[f._add_digits(1, x)] for x in powers] * 2)


# every kernel kind: prime, tabled characteristic 2 and odd characteristic
KERNEL_FIELDS = [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 5)]


@pytest.mark.parametrize("p,m", KERNEL_FIELDS)
def test_elimination_kernels_equal_field_methods(p, m):
    """The kernels an elimination calls, neg, inv and scale, agree with the
    field's add and mul: a + neg(a) = 0 and a inv(a) = 1 on every element,
    and scale(c, v) = [c x for x in v] on every pair."""
    f = field_new(p, m)
    elems = range(f.order)
    assert all(f.add(a, f.neg(a)) == 0 for a in elems)
    assert all(f.mul(a, f.inv(a)) == 1 for a in elems[1:])
    for c in elems:
        assert f.scale(c, elems) == [f.mul(c, x) for x in elems]


@pytest.mark.parametrize("p,m", [(65537, 1), (3, 11)])
def test_elimination_kernels_spot_checks(p, m):
    """Past the tables: a prime above LOG_TABLE_CAP and a digit-loop
    extension field, on 0, 1, -1 and seeded elements: a + neg(a) = 0,
    neg(a) = (p - 1) a, a inv(a) = 1 and scale(c, v) = [c x for x in v]."""
    f = field_new(p, m)
    assert f.order > LOG_TABLE_CAP and f._exp is None
    rng = random.Random(p + m)
    elems = [0, 1, f.order - 1] + [rng.randrange(f.order) for _ in range(40)]
    assert all(f.add(a, f.neg(a)) == 0 for a in elems)
    assert [f.neg(a) for a in elems] == [f.mul(p - 1, a) for a in elems]
    assert all(f.mul(a, f.inv(a)) == 1 for a in elems if a)
    for c in elems[:8]:
        assert f.scale(c, elems) == [f.mul(c, x) for x in elems]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (7, 1), (2, 3), (3, 2), (5, 2)])
def test_primitive_element_generates_units(p, m):
    f = field_new(p, m)
    g = f.primitive_element()
    seen = set()
    x = 1
    for _ in range(f.order - 1):
        seen.add(x)
        x = f.mul(x, g)
    assert seen == set(range(1, f.order))


def test_multiplicative_order_divides_group_order():
    # a^(q - 1) = 1 for every unit a, in the tabled and the untabled field
    for f in (field_new(3, 2), field_new(3, 11)):
        rng = random.Random(f.order)
        for a in [1, f.order - 1] + [rng.randrange(1, f.order) for _ in range(8)]:
            assert f.pow(a, f.order - 1) == 1


def test_inverse_of_product():
    f = field_new(2, 4)
    for a in range(1, f.order):
        for b in range(1, f.order):
            assert f.inv(f.mul(a, b)) == f.mul(f.inv(a), f.inv(b))


@pytest.mark.parametrize("p,m", [
    pytest.param(5, 1, id="prime"),
    pytest.param(2, 3, id="tabled-2-3"),
    pytest.param(3, 2, id="tabled-3-2"),
    pytest.param(3, 11, id="digit-loops-3-11"),
    pytest.param(65537, 1, id="prime-65537"),
])
def test_division_by_zero(p, m):
    f = field_new(p, m)
    with pytest.raises(DivisionByZero, match="zero has no multiplicative inverse"):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(1, 0)
    with pytest.raises(DivisionByZero):
        f.pow(0, -1)


def test_element_operators():
    f = field_new(7)
    a, b = 3, 5
    assert f.add(a, b) == 1
    assert f.mul(a, b) == 1
    assert f.add(a, f.neg(b)) == 5
    assert f.neg(a) == 4
    assert f.div(a, b) == f.mul(a, f.inv(b))
    assert f.pow(a, -1) == f.inv(a) == 5


def test_element_coeffs_little_endian():
    f = field_new(2, 3)
    # x * x = x^2 is encoding 4; x^2 * x = x^3 = x + 1 is encoding 1 + 2 = 3
    assert f.mul(2, 2) == 4
    assert f.mul(4, 2) == 3


def test_cross_field_operations_rejected():
    gf3, gf5 = field_new(3), field_new(5)
    # an encoding of GF(5) that is not one of GF(3)
    with pytest.raises(EntryOutOfRange):
        gf3.check(4)
    with pytest.raises(FieldMismatch):
        FMatrix(gf3, [[1]]).stack(FMatrix(gf5, [[1]]))


def test_element_range_checked():
    f = field_new(3)
    assert f.check(2) == 2 and type(f.check(np.int64(2))) is int
    for bad in (3, -1, 1.5, "2"):
        with pytest.raises(EntryOutOfRange):
            f.check(bad)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_equals_odd_trial_division_below_10_5():
    def by_odd_divisors(n):
        if n < 4:
            return n > 1
        if n % 2 == 0:
            return False
        d = 3
        while d * d <= n:
            if n % d == 0:
                return False
            d += 2
        return True
    assert all(is_prime(n) == by_odd_divisors(n) for n in range(-3, 10 ** 5))
