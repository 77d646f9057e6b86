"""Dense exact linear algebra over a finite field.

Matrices are immutable; entries are integer-encoded elements, each checked
by `FieldSpec.check` on the way in.  Every elimination is one step,
`reduce_row`, which inserts a row into an echelon basis: `eliminate` reduces
it, `lead` scales the remainder to 1 at its pivot.  `echelon` builds a basis
with it, `back_substitute` gives the reduced echelon form, and `null_space`
reads the canonical kernel off that form; the point-set walk of
`securecode` carries `eliminate`'s remainders.  `lead_form`, `lead`'s row as
a tuple (() for 0), is the one form of a direction, the walk's and the
search's.  A matrix keeps two forms, each in a slot, made on first use:
`reduced`, the reduced echelon form of [M | I], which the inverse, the coset
encoder and `secure_lif`'s search read, and `kernel`, M's canonical right
kernel, which the encoder and the search read.
`combination` is the one row combination.
Pivoting is first-nonzero in column order, so every operation is a
deterministic function of its inputs.  Zero-row matrices are first-class
values (needed for empty wiretap observations and full-column-rank kernels).
"""

from __future__ import annotations

from .exceptions import (
    DimensionMismatch,
    FieldMismatch,
    SingularMatrix,
)
from .gf import FieldSpec


class FMatrix:
    __slots__ = ("field", "data", "rows", "cols", "_reduced", "_kernel")

    def __init__(self, field: FieldSpec, rows, cols: int | None = None):
        data = tuple(tuple(map(field.check, row)) for row in rows)
        if cols is None and not data:
            raise DimensionMismatch("zero-row matrix needs an explicit column count")
        cols = len(data[0]) if cols is None else cols
        if type(cols) is not int or cols < 0:
            raise DimensionMismatch(f"column count {cols!r} is not a non-negative integer")
        if any(len(r) != cols for r in data):
            raise DimensionMismatch(f"row lengths {sorted({*map(len, data)})} but {cols} columns")
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = cols
        self._reduced = self._kernel = None

    @classmethod
    def identity(cls, field, n):
        eye = cls(field, (), n)  # checks n; 0 and 1 are elements of every field
        eye.data = tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n))
        eye.rows = n
        return eye

    def __eq__(self, other):
        return (
            isinstance(other, FMatrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.data))

    def __repr__(self):
        return f"FMatrix({self.field!r}, {self.rows}x{self.cols}, {list(map(list, self.data))})"

    # ---- elimination core ----

    def _echelon(self):
        """The reduced echelon form of [M | I_rows], as `reduced` keeps it."""
        eye = FMatrix.identity(self.field, self.rows).data
        rows, pivots = back_substitute(
            self.field, echelon(self.field, [(*r, *a) for r, a in zip(self.data, eye)]))
        return tuple(map(tuple, rows)), pivots, sum(c < self.cols for c in pivots)

    @property
    def reduced(self):
        """(rows, pivots, rank): the reduced echelon form of [M | I_rows], its
        nonzero rows as tuples in pivot order.  The first `rank` pivots lie
        in M, so those rows, cut to `cols` columns, are M's reduced echelon
        form; the rest lie in the augment.  Made on first use and kept."""
        if self._reduced is None:
            self._reduced = self._echelon()
        return self._reduced

    @property
    def kernel(self):
        """M's canonical right kernel: the reduced-echelon basis, as row
        tuples, of the vectors v with M v = 0.  Made on first use and kept."""
        if self._kernel is None:
            rows, pivots, rank = self.reduced
            self._kernel = null_space(self.field, rows[:rank], pivots[:rank], self.cols)
        return self._kernel

    def rank(self) -> int:
        return len(echelon(self.field, self.data))

    def invert(self) -> "FMatrix":
        if self.rows != self.cols:
            raise SingularMatrix(f"matrix is {self.rows}x{self.cols}, not square")
        rows, _, rank = self.reduced
        if rank != self.cols:
            raise SingularMatrix(f"singular matrix of rank {rank}", rank=rank)
        return FMatrix(self.field, [row[self.cols:] for row in rows], self.cols)

    # ---- structural operations ----

    def stack(self, other: "FMatrix") -> "FMatrix":
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")
        if self.cols != other.cols:
            raise DimensionMismatch(f"{self.cols} cols vs {other.cols}")
        return FMatrix(self.field, self.data + other.data, self.cols)

    def submatrix_columns(self, indices) -> "FMatrix":
        indices = list(indices)
        if not all(0 <= j < self.cols for j in indices):
            raise DimensionMismatch("column index out of range")
        return FMatrix(
            self.field, [[row[j] for j in indices] for row in self.data], len(indices)
        )

    def submatrix_rows(self, indices) -> "FMatrix":
        indices = list(indices)
        if not all(0 <= i < self.rows for i in indices):
            raise DimensionMismatch("row index out of range")
        return FMatrix(self.field, [self.data[i] for i in indices], self.cols)

    def transpose(self) -> "FMatrix":
        if self.rows == 0:
            return FMatrix(self.field, [[] for _ in range(self.cols)], 0)
        return FMatrix(self.field, list(zip(*self.data)), self.rows)

    def mul_vec(self, v):
        v = [self.field.check(x) for x in v]
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != {self.cols} cols")
        return [self.field.dot(row, v) for row in self.data]


def combination(field, coeffs, rows, width):
    """Row combination sum_i coeffs[i] * rows[i] of integer-encoded rows of
    length `width`; the zero row when every coefficient is zero."""
    acc, axpy = [0] * width, field.axpy
    for c, row in zip(coeffs, rows):
        if c:
            acc = axpy(c, row, acc)
    return acc


# ---- the one elimination step, in two halves ----

def eliminate(field, basis, v):
    """v reduced, not normalised, by an echelon basis: (pivot, row) pairs,
    each row 1 at its pivot, 0 before it and at the earlier pairs' pivots."""
    axpy, neg = field.axpy, field.neg
    for p, row in basis:
        if v[p]:
            v = axpy(neg(v[p]), row, v)
    return v


def lead(field, v):
    """(pivot, v scaled to 1 there) at v's first nonzero entry; None if v = 0."""
    for p, c in enumerate(v):
        if c:
            return p, v if c == 1 else field.scale(field.inv(c), v)
    return None


def lead_form(field, v):
    """v scaled to 1 at its pivot, as a tuple; () if v = 0."""
    return tuple(step[1]) if (step := lead(field, v)) else ()


def reduce_row(field, basis, v):
    """v's remainder by an echelon basis as `lead` gives it; None in its span."""
    return lead(field, eliminate(field, basis, v))


def echelon(field, rows):
    """An echelon basis of the span of the rows, inserted in order."""
    basis = []
    for v in rows:
        step = reduce_row(field, basis, v)
        if step:
            basis.append(step)
            if len(basis) == len(v):
                break
    return basis


def back_substitute(field, basis):
    """(rows, pivots) of the reduced echelon form of an echelon basis' span:
    each row, last pivot first, reduced by the rows already done."""
    done = []
    for _, row in sorted(basis, reverse=True):
        done.insert(0, reduce_row(field, done, row))
    return [row for _, row in done], tuple(p for p, _ in done)


def null_space(field, rows, pivots, width):
    """The reduced-echelon canonical basis, as row tuples, of the vectors of
    length `width` that annihilate the span of a reduced echelon form (rows,
    pivots), as `back_substitute` gives it; columns past `width` are ignored."""
    kernel = []
    for fc in sorted(set(range(width)) - set(pivots)):
        vec = [0] * width
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = field.neg(row[fc])
        kernel.append(tuple(vec))
    return tuple(kernel)
