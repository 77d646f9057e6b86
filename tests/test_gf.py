import pytest

from wiretapnc.exceptions import (
    DivisionByZero,
    FieldMismatch,
    FieldTooLarge,
    NonPrimeCharacteristic,
)
from wiretapnc.gf import LOG_TABLE_CAP, Element, FieldSpec, field_new, is_prime

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
    with pytest.raises(FieldTooLarge):
        field_new(2, 21)


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
    g = f.primitive_element()
    assert int(g) == 3
    assert [f.pow(3, i) for i in range(6)] == [1, 3, 2, 6, 4, 5]


# a FieldSpec made directly must take the same table path as field_new's
@pytest.mark.parametrize("make,p,m", [
    pytest.param(make, p, m, id=f"{prefix}{p}-{m}")
    for make, prefix in ((field_new, ""), (FieldSpec, "direct-"))
    for p, m in SMALL_PRIME_POWERS
])
def test_field_axioms_exhaustive(make, p, m):
    f = make(p, m)
    q = f.order
    assert (f._exp is not None) == (m > 1 and q <= LOG_TABLE_CAP)
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
    g = int(f.primitive_element())
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
    a, b = f.element(3), f.element(5)
    assert int(a + b) == 1
    assert int(a * b) == 1
    assert int(a - b) == 5
    assert int(-a) == 4
    assert int(a / b) == int(a * b.inverse())
    assert int(a ** -1) == int(a.inverse())
    assert a == 3 and a != b
    assert bool(f.zero) is False and bool(f.one) is True


def test_element_coeffs_little_endian():
    f = field_new(2, 3)
    # encoding 6 = 0 + 1*2 + 1*4 -> coefficients (0, 1, 1)
    assert f.element(6).coeffs == [0, 1, 1]
    assert f.element(1).coeffs == [1, 0, 0]


def test_cross_field_operations_rejected():
    a = field_new(3).element(1)
    b = field_new(5).element(1)
    with pytest.raises(FieldMismatch):
        a + b
    with pytest.raises(FieldMismatch):
        field_new(5).element(a)


def test_element_range_checked():
    f = field_new(3)
    with pytest.raises(ValueError):
        f.element(3)
    with pytest.raises(ValueError):
        f.element(-1)


def test_elements_iterator():
    f = field_new(2, 2)
    assert [int(e) for e in f.elements()] == [0, 1, 2, 3]


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
