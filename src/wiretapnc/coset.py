"""Ozarow-Wyner coset coding and MDS/MRD parity-check constructions.

The encoder maps a k-symbol secret S to the syndrome of an [n, n-k] code and
transmits a word drawn uniformly from the matching coset: Y = [S R] G, with R
the n-k injected randomness symbols.  The generator G is one invertible n x n
matrix [P; N]: row i of P is the word of syndrome e_i, nonzero only on H's
pivot columns, and N is H's canonical kernel basis.  So H G^T = [I_k 0], and
G^T is the matrix T of the equivalent Cai-Yeung multiply-by-T scheme
(`securecode.cai_yeung_to_coset`).  Randomness enters only through an
explicit seed (or an explicit kernel-coefficient vector), so every security
experiment is reproducible.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from .exceptions import (
    BadParameters,
    CapExceeded,
    DimensionMismatch,
    ExtensionTooSmall,
    LengthExceedsField,
    SingularMatrix,
)
from .fmatrix import FMatrix, combination
from .gf import FieldSpec, field_new

MDS_SUBSET_CAP = 10 ** 6


class CosetCode:
    """Coset code defined by a full-row-rank k x n parity check matrix H.

    The generator is read off the forms H keeps (`FMatrix.reduced` and
    `FMatrix.kernel`), so H is reduced once however many codes, builds and
    oracles read it; a rank-deficient H is refused on every call."""

    def __init__(self, parity_check: FMatrix):
        H = self.parity_check = parity_check
        self.k, self.n, self.field = H.rows, H.cols, H.field
        # H's reduced form [R | E], R the RREF of H, whose pivot columns P make
        # E = H_P^-1: column i of E, placed on P, has syndrome e_i
        rows, pivots, rank = H.reduced
        if rank != self.k:
            raise SingularMatrix(f"parity check must have full row rank {self.k}", rank=rank)
        words = [[0] * self.n for _ in range(self.k)]
        for c, row in zip(pivots, rows):
            for word, x in zip(words, row[self.n:]):
                word[c] = x
        # the encoder matrix G = [P; N], as n row tuples
        self.generator = (*map(tuple, words), *H.kernel)

    def encode_with_randomness(self, secret, r):
        """Deterministic coset word [secret r] G for explicit kernel coefficients r."""
        if len(r) != self.n - self.k:
            raise DimensionMismatch(f"need {self.n - self.k} randomness symbols")
        if len(secret) != self.k:
            raise DimensionMismatch(f"secret length {len(secret)} != k={self.k}")
        return combination(self.field, [*map(self.field.check, secret), *r],
                           self.generator, self.n)

    def encode(self, secret, seed: int = 0):
        rng = random.Random(seed)
        r = [rng.randrange(self.field.order) for _ in range(self.n - self.k)]
        return self.encode_with_randomness(secret, r)

    def decode(self, word):
        """Syndrome computation H y; inverts encode for every seed."""
        return self.parity_check.mul_vec(word)


def rs_parity_check(n: int, length: int, field: FieldSpec) -> FMatrix:
    """Vandermonde parity check of an [length, length-n] Reed-Solomon code.

    Entry (i, j) = alpha^((i+1) j), rows i = 0..n-1, columns j = 0..length-1,
    with alpha the field's primitive element.
    """
    if length > field.order - 1:
        raise LengthExceedsField(
            f"length {length} exceeds q-1 = {field.order - 1}"
        )
    a = field.primitive_element()
    return FMatrix(field, [[field.pow(a, (i + 1) * j) for j in range(length)] for i in range(n)],
                   length)


def is_mds_parity_check(Hfull: FMatrix):
    """Exhaustively check that every n-column submatrix has full rank n.

    Returns (ok, witness): witness is the first failing column subset, or None.
    This is a correctness oracle; above the subset cap it refuses rather than
    sampling.
    """
    n = Hfull.rows
    if comb(Hfull.cols, n) > MDS_SUBSET_CAP:
        raise CapExceeded(
            f"choose({Hfull.cols}, {n}) exceeds {MDS_SUBSET_CAP = }"
        )
    for subset in combinations(range(Hfull.cols), n):
        if Hfull.submatrix_columns(subset).rank() != n:
            return False, subset
    return True, None


def gabidulin_parity_check(n: int, k: int, base: FieldSpec, m: int) -> FMatrix:
    """Moore-style parity check of an [n, k] Gabidulin code over GF(q^m).

    Row i, column j holds g_j^(q^i) where g_j = x^j is the canonical basis of
    GF(q^m) over GF(q) truncated to n elements.  Requires 0 <= k <= n <= m.
    """
    if not 0 <= k <= n:
        raise BadParameters(f"k={k} must lie between 0 and n={n}")
    if base.m != 1:
        raise ExtensionTooSmall(
            "Gabidulin construction requires a prime base field"
        )
    if m < n:
        raise ExtensionTooSmall(f"extension degree {m} < code length {n}")
    ext = field_new(base.p, m)
    q = base.order
    # g_j = x^j encodes as p^j in the little-endian integer encoding
    basis = [base.p ** j for j in range(n)]
    return FMatrix(ext, [[ext.pow(g, q ** i) for g in basis] for i in range(n - k)], n)


def lift_matrix(M: FMatrix, ext: FieldSpec) -> FMatrix:
    """Embed a prime-base-field matrix into the extension field GF(p^m)."""
    if M.field.m != 1 or M.field.p != ext.p:
        raise DimensionMismatch("can only lift prime-field matrices into GF(p^m)")
    return FMatrix(ext, M.data, M.cols)


def universal_secrecy_check(H_ext: FMatrix, B: FMatrix) -> bool:
    """MRD universality: is the stack [H; lift(B)] invertible over GF(q^m)?

    B must be a full-rank matrix over the base field with H.rows + B.rows
    equal to the common column count.
    """
    if B.cols != H_ext.cols:
        raise DimensionMismatch(f"{B.cols} cols vs {H_ext.cols}")
    if H_ext.rows + B.rows != H_ext.cols:
        raise DimensionMismatch(
            f"stack is {H_ext.rows + B.rows}x{H_ext.cols}, not square"
        )
    if B.rank() != B.rows:
        raise SingularMatrix("B must have full row rank", rank=B.rank())
    lifted = B if B.field == H_ext.field else lift_matrix(B, H_ext.field)
    stacked = H_ext.stack(lifted)
    return stacked.rank() == stacked.cols
