"""Finite fields GF(p^m): construction, element arithmetic, primitive elements.

Elements are integers in [0, q): the coefficient vector of the polynomial
representation, read little-endian in base p.  This is the only element type,
used by all arithmetic and every JSON interchange format; `FieldSpec.check` is
the one check on an incoming element.  Each field picks once its row kernels
(`axpy`, `dot`, `scale`) and the `negation` and `inverse` an elimination calls.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import index, mul

from .exceptions import (
    BadParameters,
    CapExceeded,
    DivisionByZero,
    EntryOutOfRange,
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
        if p <= ORDER_CAP and not is_prime(p):  # a larger p is refused below, unfactored
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if m < 1:
            raise BadParameters(f"extension degree must be >= 1, got {m}")
        # p^m > ORDER_CAP for every p >= 2 once m reaches its bit length: p^m is formed for small m
        if m >= ORDER_CAP.bit_length() or p ** m > ORDER_CAP:
            raise CapExceeded(f"order {p}^{m} exceeds {ORDER_CAP = }")
        self.p = p
        self.m = m
        self.order = p ** m
        self.modulus = self._find_modulus(p, m)
        # exp/log tables turn extension mul, inv, add and neg into lookups: exp is
        # doubled, so a sum of two logs indexes it, then padded with the zeros
        # that log[0] = 2 (q - 1) indexes
        self._exp = self._log = self._zech = None
        if m > 1 and self.order <= LOG_TABLE_CAP:
            g = self.primitive_element()
            q1 = self.order - 1
            exp, log = [1] * q1, [2 * q1] * self.order
            x = 1
            for i in range(q1):
                exp[i], log[x] = x, i
                x = self._mul_poly(x, g)
            if p > 2:  # Zech logs zech[i] = log(1 + g^i), doubled; add is still the digit loop
                self._zech = [log[self.add(1, x)] for x in exp] * 2
            self._exp, self._log = exp + exp + [0] * (2 * q1 + 1), log
        self.axpy, self.dot, self.negation, self.inverse, self.scale = self._kernels()

    def _kernels(self):
        """The kernels, picked once per field kind: axpy(c, row, v) = v + c row,
        dot(a, b), negation(a), inverse(a) for a != 0 and scale(c, v) = c v.
        Fields with exp/log tables read them; the others use closures."""
        p, q1, exp, log, zech = self.p, self.order - 1, self._exp, self._log, self._zech
        if self.m == 1:
            return (lambda c, row, v: [(x + c * y) % p for x, y in zip(v, row)],
                    lambda a, b: sum(map(mul, a, b)) % p,
                    lambda a: -a % p, lambda a: pow(a, -1, p), lambda c, v: [c * x % p for x in v])
        if exp is None:  # the digit loops
            add, fmul = self.add, self.mul
            return (lambda c, row, v: [add(x, fmul(c, y)) if y else x for x, y in zip(v, row)],
                    lambda a, b: reduce(add, map(fmul, a, b), 0), self.neg, self.inv,
                    lambda c, v: [fmul(c, x) for x in v])
        # log[0] indexes exp's zero padding, so 0 scales and negates to 0
        tables = (lambda a: exp[q1 - log[a]],
                  lambda c, v: [exp[log[c] + log[x]] for x in v])
        if p == 2:  # addition is XOR
            def axpy(c, row, v):
                lc = log[c]
                return [x ^ exp[lc + log[y]] for x, y in zip(v, row)]

            def dot(a, b):
                acc = 0
                for x, y in zip(a, b):
                    acc ^= exp[log[x] + log[y]]
                return acc
            return axpy, dot, int, *tables  # -a = a

        def axpy(c, row, v):  # x + y = exp[log x + zech[log y - log x]] for x, y != 0
            lc = log[c]
            return [(exp[log[x] + zech[lc + log[y] - log[x]]] if x else exp[lc + log[y]])
                    if y else x for x, y in zip(v, row)] if c else list(v)

        def dot(a, b):
            acc = 0
            for x, y in zip(a, b):
                if x and y:
                    t = log[x] + log[y]
                    acc = exp[log[acc] + zech[t - log[acc]]] if acc else exp[t]
            return acc
        return axpy, dot, lambda a: exp[log[a] + q1 // 2], *tables  # -1 = g^((q - 1) / 2)

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
        if self._exp is not None:
            if self.p == 2 or not (a and b):  # XOR, or one of a and b is 0
                return a ^ b
            log = self._log
            return self._exp[log[a] + self._zech[log[b] - log[a]]]
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
        if self._exp is not None:  # -a = a for p = 2, else -1 = g^((q - 1) / 2)
            return a if self.p == 2 else self._exp[self._log[a] + (self.order - 1) // 2]
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
            return self._exp[self._log[a] + self._log[b]]
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
            return self._exp[self.order - 1 - self._log[a]]
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
