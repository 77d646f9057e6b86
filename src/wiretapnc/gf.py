"""Finite fields GF(p^m): construction, element arithmetic, primitive elements.

Elements are integers in [0, q): the coefficient vector of the polynomial
representation, read little-endian in base p.  This is the only element type,
used by all arithmetic and every JSON interchange format; `FieldSpec.check` is
the one check on an incoming element.  Each field picks its arithmetic once:
`add`, `neg`, `mul`, `inv` and the row kernels `axpy`, `dot` and `scale`, by
reduction mod p, by exp/log tables, or by the digit loops of an extension
field above `LOG_TABLE_CAP`, which also seed the tables.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import index, mul, xor

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
            q1, ph = self.order - 1, p ** (m // 2)
            exp, log = [1] * q1, [2 * q1] * self.order
            low = [self._mul_poly(v, g) for v in range(ph)]  # x g = low[x % ph] + high[x // ph]
            high = [self._mul_poly(v * ph, g) for v in range(self.order // ph)]
            add, x = xor if p == 2 else self._add_digits, 1
            for i in range(q1):
                exp[i], log[x] = x, i
                x = add(low[x % ph], high[x // ph])
            if p > 2:  # Zech logs zech[i] = log(1 + g^i), doubled; 1 + x changes digit 0 only
                self._zech = [log[x - x % p + (x + 1) % p] for x in exp] * 2
            self._exp, self._log = exp + exp + [0] * (2 * q1 + 1), log
        (self.add, self.neg, self.axpy, self.dot,
         self.mul, self.inv, self.scale) = self._kernels()

    def _kernels(self):
        """add, neg, axpy(c, row, v) = v + c row, dot, mul, inv (DivisionByZero
        for 0) and scale(c, v) = c v, picked once per field kind: mod p, table
        lookups, or the digit loops."""
        p, q1, exp, log, zech = self.p, self.order - 1, self._exp, self._log, self._zech
        if self.m == 1:
            return (lambda a, b: (a + b) % p, lambda a: -a % p,
                    lambda c, row, v: [(x + c * y) % p for x, y in zip(v, row)],
                    lambda a, b: sum(map(mul, a, b)) % p, lambda a, b: a * b % p,
                    lambda a: pow(a, -1, p) if a else _no_inverse(),
                    lambda c, v: [c * x % p for x in v])
        if exp is None:  # the digit loops
            add, fmul = self._add_digits, self._mul_poly
            return (add, self._neg_digits,
                    lambda c, row, v: [add(x, fmul(c, y)) if y else x for x, y in zip(v, row)],
                    lambda a, b: reduce(add, map(fmul, a, b), 0), fmul,
                    lambda a: _power(fmul, a, q1 - 1) if a else _no_inverse(),
                    lambda c, v: [fmul(c, x) for x in v])
        # log[0] indexes exp's zero padding, so 0 multiplies, scales and negates to 0
        tables = (lambda a, b: exp[log[a] + log[b]],
                  lambda a: exp[q1 - log[a]] if a else _no_inverse(),
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
            return xor, int, axpy, dot, *tables  # -a = a

        def add(a, b):  # a + b = exp[log a + zech[log b - log a]] for a, b != 0
            return exp[log[a] + zech[log[b] - log[a]]] if a and b else a ^ b

        def axpy(c, row, v):
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
        return add, lambda a: exp[log[a] + q1 // 2], axpy, dot, *tables  # -1 = g^((q - 1) / 2)

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

    # ---- the digit loops: extension arithmetic without tables ----

    def _add_digits(self, a, b):
        p = self.p
        res = 0
        mult = 1
        while a or b:
            res += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return res

    def _neg_digits(self, a):
        p = self.p
        res = 0
        mult = 1
        while a:
            res += -a % p % p * mult
            a //= p
            mult *= p
        return res

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
            a, e = self.inv(a), -e
        return pow(a, e, self.p) if self.m == 1 else _power(self.mul, a, e)

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

    def primitive_element(self) -> int:
        """Smallest element (in integer-encoding order) of order q - 1, by
        polynomial products in an extension: the tables it seeds come later."""
        if self.order == 2:
            return 1
        q1 = self.order - 1
        factors = _prime_factors(q1)
        for v in range(2, self.order):
            if all((pow(v, q1 // r, self.p) if self.m == 1 else
                    _power(self._mul_poly, v, q1 // r)) != 1 for r in factors):
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


def _no_inverse():
    raise DivisionByZero("zero has no multiplicative inverse")


def _power(mul, a, e):
    """a^e for e >= 0 by square-and-multiply with the product `mul`."""
    result = 1
    while e:
        if e & 1:
            result = mul(result, a)
        a = mul(a, a)
        e >>= 1
    return result


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
