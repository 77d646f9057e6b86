"""Dense exact linear algebra over a finite field.

Matrices are immutable; entries are integer-encoded elements, each checked
by `FieldSpec.check` on the way in.
Pivoting is first-nonzero in column order, so every operation is a
deterministic function of its inputs.  Zero-row matrices are first-class
values (needed for empty wiretap observations and full-column-rank kernels).
"""

from __future__ import annotations

from .exceptions import (
    DimensionMismatch,
    FieldMismatch,
    NoSolution,
    SingularMatrix,
)
from .gf import FieldSpec


class FMatrix:
    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field: FieldSpec, rows, cols: int | None = None):
        data = tuple(tuple(map(field.check, row)) for row in rows)
        if data:
            cols = len(data[0])
            if any(len(r) != cols for r in data):
                raise DimensionMismatch("ragged rows")
        elif cols is None:
            raise DimensionMismatch("zero-row matrix needs an explicit column count")
        self.field = field
        self.data = data
        self.rows = len(data)
        self.cols = cols

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(r[j] for r in self.data)

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

    def _echelon(self, augment=None):
        """Row reduce [M | augment] to reduced echelon form, taking pivots
        only in M's columns.  Returns (rows, pivots); each row keeps its
        augmented part after the first `cols` entries."""
        f = self.field
        if augment is None:
            work = [list(r) for r in self.data]
        else:
            work = [[*r, *a] for r, a in zip(self.data, augment)]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot = None
            for i in range(r, len(work)):
                if work[i][c]:
                    pivot = i
                    break
            if pivot is None:
                continue
            work[r], work[pivot] = work[pivot], work[r]
            inv = f.inv(work[r][c])
            if inv != 1:
                work[r] = [f.mul(inv, x) for x in work[r]]
            for i in range(len(work)):
                if i != r and work[i][c]:
                    # x - factor * y as x + (-factor) * y: one neg per row
                    neg_factor = f.neg(work[i][c])
                    work[i] = [
                        f.add(x, f.mul(neg_factor, y)) for x, y in zip(work[i], work[r])
                    ]
            pivots.append(c)
            r += 1
            if r == len(work):
                break
        return work, pivots

    def rref(self):
        work, pivots = self._echelon()
        return FMatrix(self.field, work, self.cols), tuple(pivots)

    def rank(self) -> int:
        _, pivots = self._echelon()
        return len(pivots)

    def row_basis(self) -> "FMatrix":
        """Nonzero rows of the RREF: canonical basis of the row space."""
        work, pivots = self._echelon()
        return FMatrix(self.field, work[: len(pivots)], self.cols)

    def invert(self) -> "FMatrix":
        if self.rows != self.cols:
            raise SingularMatrix(f"matrix is {self.rows}x{self.cols}, not square")
        eye = [[1 if i == j else 0 for j in range(self.rows)] for i in range(self.rows)]
        work, pivots = self._echelon(augment=eye)
        if len(pivots) != self.cols:
            raise SingularMatrix(
                f"singular matrix of rank {len(pivots)}", rank=len(pivots)
            )
        return FMatrix(self.field, [row[self.cols:] for row in work])

    def null_space_basis(self) -> "FMatrix":
        """Rows form the reduced-echelon canonical basis of the right kernel."""
        f = self.field
        work, pivots = self._echelon()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            vec = [0] * self.cols
            vec[fc] = 1
            for r, pc in enumerate(pivots):
                vec[pc] = f.neg(work[r][fc])
            basis.append(vec)
        return FMatrix(f, basis, self.cols)

    def solve(self, b):
        """Solve M x = b.  Returns (x, unique); raises NoSolution if inconsistent."""
        b = [self.field.check(x) for x in b]
        if len(b) != self.rows:
            raise DimensionMismatch(f"rhs length {len(b)} != {self.rows} rows")
        work, pivots = self._echelon(augment=[[x] for x in b])
        for i in range(len(pivots), self.rows):
            if work[i][-1] != 0:
                raise NoSolution("inconsistent system")
        x = [0] * self.cols
        for r, c in enumerate(pivots):
            x[c] = work[r][-1]
        return x, len(pivots) == self.cols

    # ---- structural operations ----

    def _check_field(self, other):
        if self.field != other.field:
            raise FieldMismatch("matrices over different fields")

    def stack(self, other: "FMatrix") -> "FMatrix":
        self._check_field(other)
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
        return FMatrix(self.field, [self.data[i] for i in indices], self.cols)

    def transpose(self) -> "FMatrix":
        if self.rows == 0:
            return FMatrix(self.field, [[] for _ in range(self.cols)], 0)
        return FMatrix(self.field, list(zip(*self.data)), self.rows)

    def mul_mat(self, other: "FMatrix") -> "FMatrix":
        self._check_field(other)
        if self.cols != other.rows:
            raise DimensionMismatch(f"{self.cols} cols vs {other.rows} rows")
        f = self.field
        return FMatrix(
            f, [combination(f, arow, other.data, other.cols) for arow in self.data],
            other.cols,
        )

    def __matmul__(self, other):
        return self.mul_mat(other)

    def mul_vec(self, v):
        v = [self.field.check(x) for x in v]
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != {self.cols} cols")
        f = self.field
        return [
            _dot(f, row, v)
            for row in self.data
        ]


def _dot(field, a, b):
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = field.add(acc, field.mul(x, y))
    return acc


def dot(field, a, b):
    """Inner product of two integer-encoded vectors."""
    if len(a) != len(b):
        raise DimensionMismatch("vector lengths differ")
    return _dot(field, a, b)


def combination(field, coeffs, rows, width):
    """Row combination sum_i coeffs[i] * rows[i] of integer-encoded rows of
    length `width`; the zero row when every coefficient is zero."""
    acc = [0] * width
    for c, row in zip(coeffs, rows):
        if c:
            for j, b in enumerate(row):
                if b:
                    acc[j] = field.add(acc[j], field.mul(c, b))
    return acc
