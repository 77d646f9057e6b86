"""Finite fields GF(p^m): construction, element arithmetic, primitive elements.

Elements are integers in [0, q): the coefficient vector of the polynomial
representation, read little-endian in base p.  This is the only element type,
used by all arithmetic and every JSON interchange format; `FieldSpec.check` is
the one check on an incoming element.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index

from .exceptions import (
    BadParameters,
    DivisionByZero,
    EntryOutOfRange,
    FieldTooLarge,
    NonPrimeCharacteristic,
)

ORDER_CAP = 2 ** 20
LOG_TABLE_CAP = 2 ** 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _poly_divmod(num, den, p):
    """Polynomial division of coefficient lists (little-endian) over GF(p)."""
    num = list(num)
    dlead = den[-1]
    dlead_inv = pow(dlead, p - 2, p)
    dd = len(den) - 1
    quot = [0] * max(len(num) - dd, 0)
    for i in range(len(num) - 1 - dd, -1, -1):
        coef = num[i + dd] * dlead_inv % p
        quot[i] = coef
        if coef:
            for j, c in enumerate(den):
                num[i + j] = (num[i + j] - coef * c) % p
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    return quot, num


def _is_irreducible(poly, p):
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        # monic divisors of degree d, lower coefficients enumerated base p
        for code in range(p ** d):
            div = _int_to_coeffs(code, p, d) + [1]
            _, rem = _poly_divmod(poly, div, p)
            if rem == [0]:
                return False
    return True


def _int_to_coeffs(value, p, m):
    coeffs = []
    for _ in range(m):
        coeffs.append(value % p)
        value //= p
    return coeffs


def _coeffs_to_int(coeffs, p):
    value = 0
    for c in reversed(coeffs):
        value = value * p + c
    return value


class FieldSpec:
    """The field GF(p^m) with the lexicographically smallest monic irreducible
    modulus of degree m.  Immutable; all arithmetic is pure."""

    def __init__(self, p: int, m: int = 1):
        try:
            if isinstance(p, bool) or isinstance(m, bool):
                raise TypeError
            p, m = index(p), index(m)
        except TypeError:
            raise BadParameters(f"p and m must be integers, got {p!r}, {m!r}") from None
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise BadParameters(f"extension degree must be >= 1, got {m}")
        if p ** m > ORDER_CAP:
            raise FieldTooLarge(f"order {p}^{m} exceeds {ORDER_CAP = }")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = self._find_modulus(p, m)
        # exp/log tables turn extension mul and inv into lookups
        self._exp = self._log = None
        if m > 1 and self.order <= LOG_TABLE_CAP:
            g = self.primitive_element()
            exp = [1] * (self.order - 1)
            log = [0] * self.order
            x = 1
            for i in range(self.order - 1):
                exp[i] = x
                log[x] = i
                x = self._mul_poly(x, g)
            self._exp = exp
            self._log = log

    @staticmethod
    def _find_modulus(p, m):
        if m == 1:
            return (0, 1)  # the polynomial x; arithmetic is plain mod p
        # enumerate lower coefficients in increasing integer order: this is
        # lexicographic order on (c_{m-1}, ..., c_0) read degree-descending
        for code in range(p ** m):
            poly = _int_to_coeffs(code, p, m) + [1]
            if _is_irreducible(poly, p):
                return tuple(poly)
        raise AssertionError("no irreducible polynomial found")  # unreachable

    # ---- arithmetic on integer-encoded elements ----

    def add(self, a: int, b: int) -> int:
        if self.m == 1:
            return (a + b) % self.p
        p = self.p
        res = 0
        mult = 1
        while a or b:
            res += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return res

    def neg(self, a: int) -> int:
        if self.m == 1:
            return -a % self.p
        p = self.p
        res = 0
        mult = 1
        while a:
            res += -a % p % p * mult
            a //= p
            mult *= p
        return res

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.m == 1:
            return a * b % self.p
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[(self._log[a] + self._log[b]) % (self.order - 1)]
        return self._mul_poly(a, b)

    def _mul_poly(self, a, b):
        p = self.p
        ac = _int_to_coeffs(a, p, self.m)
        bc = _int_to_coeffs(b, p, self.m)
        prod = [0] * (2 * self.m - 1)
        for i, ai in enumerate(ac):
            if ai:
                for j, bj in enumerate(bc):
                    prod[i + j] = (prod[i + j] + ai * bj) % p
        _, rem = _poly_divmod(prod, list(self.modulus), p)
        rem += [0] * (self.m - len(rem))
        return _coeffs_to_int(rem, p)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.m == 1:
            return pow(a, e, self.p)
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative inverse")
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        if self._exp is not None:
            return self._exp[-self._log[a] % (self.order - 1)]
        return self.pow(a, self.order - 2)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def check(self, value) -> int:
        """The one check on an incoming element: an integer (Python or
        numpy, not a boolean) in [0, q), returned as a Python int."""
        try:
            if isinstance(value, bool):
                raise TypeError
            value = index(value)
        except TypeError:
            raise EntryOutOfRange(f"entry {value!r} is not an integer") from None
        if not 0 <= value < self.order:
            raise EntryOutOfRange(f"entry {value} out of range for {self}")
        return value

    def multiplicative_order(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("zero has no multiplicative order")
        x = a
        order = 1
        while x != 1:
            x = self.mul(x, a)
            order += 1
        return order

    def primitive_element(self) -> int:
        """Smallest element (in integer-encoding order) of order q - 1."""
        if self.order == 2:
            return 1
        factors = _prime_factors(self.order - 1)
        for v in range(2, self.order):
            if all(self.pow(v, (self.order - 1) // r) != 1 for r in factors):
                return v
        raise AssertionError("no primitive element found")  # unreachable

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.p == other.p
            and self.m == other.m
        )

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self):
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"


@lru_cache(maxsize=None, typed=True)
def field_new(p: int, m: int = 1) -> FieldSpec:
    """Construct (and cache) GF(p^m); deterministic across runs."""
    return FieldSpec(p, m)


def _prime_factors(n):
    factors = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.add(d)
            n //= d
        d += 1
    if n > 1:
        factors.add(n)
    return factors
