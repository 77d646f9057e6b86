import numpy as np
import pytest

from wiretapnc import gf
from wiretapnc.exceptions import (
    BadParameters,
    DivisionByZero,
    EntryOutOfRange,
    FieldMismatch,
    FieldTooLarge,
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
    with pytest.raises(FieldTooLarge, match=r"^order 2\^21 exceeds ORDER_CAP = 1048576$"):
        field_new(2, 21)
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
    assert f.multiplicative_order(g) == f.order - 1


def test_multiplicative_order_divides_group_order():
    f = field_new(3, 2)
    for a in range(1, f.order):
        assert (f.order - 1) % f.multiplicative_order(a) == 0


def test_inverse_of_product():
    f = field_new(2, 4)
    for a in range(1, f.order):
        for b in range(1, f.order):
            assert f.inv(f.mul(a, b)) == f.mul(f.inv(a), f.inv(b))


def test_division_by_zero():
    f = field_new(5)
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        f.div(3, 0)
    with pytest.raises(DivisionByZero):
        f.multiplicative_order(0)


def test_element_operators():
    f = field_new(7)
    a, b = 3, 5
    assert f.add(a, b) == 1
    assert f.mul(a, b) == 1
    assert f.sub(a, b) == 5
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
        FMatrix(gf3, [[1]]).mul_mat(FMatrix(gf5, [[1]]))


def test_element_range_checked():
    f = field_new(3)
    assert f.check(2) == 2 and type(f.check(np.int64(2))) is int
    for bad in (3, -1, 1.5, "2"):
        with pytest.raises(EntryOutOfRange):
            f.check(bad)


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
