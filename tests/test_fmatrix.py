import random

import pytest

from conftest import (
    complete_to_invertible,
    kernel,
    matmul,
    prime_power_parts,
    random_full_rank_matrix,
)
from wiretapnc.exceptions import (
    DimensionMismatch,
    FieldMismatch,
    SingularMatrix,
)
from wiretapnc.fmatrix import (
    FMatrix,
    back_substitute,
    combination,
    echelon,
    eliminate,
    lead,
    reduce_row,
)
from wiretapnc.gf import field_new


def test_inverse_known_example(gf3):
    M = FMatrix(gf3, [[1, 1], [1, 2]])
    Minv = M.invert()
    assert matmul(M, Minv) == FMatrix.identity(gf3, 2)
    assert matmul(Minv, M) == FMatrix.identity(gf3, 2)


def test_singular_inverse_reports_rank(gf2):
    M = FMatrix(gf2, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix) as exc:
        M.invert()
    assert exc.value.rank == 1


def test_rref_and_pivots(gf7):
    M = FMatrix(gf7, [[0, 2, 4], [0, 3, 6]])
    rows, pivots = back_substitute(gf7, echelon(gf7, M.data))
    assert pivots == (1,)
    assert [list(row) for row in rows] == [[0, 1, 2]]
    assert M.rank() == 1


def test_null_space_annihilates_and_rank_nullity():
    rng = random.Random(3)
    for q, (p, m) in [(2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (7, (7, 1))]:
        f = field_new(p, m)
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            M = FMatrix(f, [[rng.randrange(q) for _ in range(cols)]
                            for _ in range(rows)])
            K = kernel(M)
            assert M.rank() + K.rows == cols
            for v in K.data:
                assert M.mul_vec(list(v)) == [0] * rows
            assert K.rows == 0 or K.rank() == K.rows


def test_zero_row_matrix_is_first_class(gf3):
    Z = FMatrix(gf3, [], 3)
    assert Z.rank() == 0
    assert kernel(Z) == FMatrix.identity(gf3, 3)
    assert Z.stack(FMatrix.identity(gf3, 3)).rank() == 3
    with pytest.raises(DimensionMismatch):
        FMatrix(gf3, [])


def test_empty_identity_and_inverse_are_0x0(gf3):
    empty = FMatrix(gf3, [], 0)
    assert FMatrix.identity(gf3, 0) == empty
    assert empty.invert() == empty
    assert (empty.rows, empty.cols) == (0, 0)


def test_invert_refuses_a_non_square_matrix(gf3):
    with pytest.raises(SingularMatrix, match="^matrix is 1x2, not square$"):
        FMatrix(gf3, [[1, 2]]).invert()


def test_transpose_of_a_zero_row_matrix_has_a_row_per_column(gf3):
    T = FMatrix(gf3, [], 3).transpose()
    assert (T.rows, T.cols, T.data) == (3, 0, ((), (), ()))
    assert T.transpose() == FMatrix(gf3, [], 3)


def test_structural_operations(gf3):
    M = FMatrix(gf3, [[1, 2, 0], [0, 1, 1]])
    assert M.transpose().data == ((1, 0), (2, 1), (0, 1))
    assert M.submatrix_columns([2, 0]).data == ((0, 1), (1, 0))
    assert M.submatrix_rows([1]).data == ((0, 1, 1),)
    assert M.stack(M).rows == 4
    assert matmul(M, M.transpose()).data == ((2, 2), (2, 2))
    assert M.mul_vec([1, 1, 1]) == [0, 2]
    assert gf3.dot([1, 2], [2, 2]) == 0


def test_dimension_and_field_guards(gf3, gf7):
    M = FMatrix(gf3, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        FMatrix(gf3, [[1, 2], [1]])
    with pytest.raises(DimensionMismatch):
        M.stack(FMatrix(gf3, [[1, 2, 0]]))
    with pytest.raises(DimensionMismatch):
        M.mul_vec([1])
    # a negative index is refused, not read from the end
    for bad in ([-1], [1]):
        with pytest.raises(DimensionMismatch, match="row index out of range"):
            M.submatrix_rows(bad)
    for bad in ([-1], [2]):
        with pytest.raises(DimensionMismatch, match="column index out of range"):
            M.submatrix_columns(bad)
    with pytest.raises(FieldMismatch):
        M.stack(FMatrix(gf7, [[1, 2]]))
    with pytest.raises(ValueError):
        FMatrix(gf3, [[5]])


def test_random_algebraic_identities():
    rng = random.Random(11)
    f = field_new(5)
    for _ in range(25):
        A = random_full_rank_matrix(rng, f, 3, 3)
        B = FMatrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        C = FMatrix(f, [[rng.randrange(5) for _ in range(3)] for _ in range(3)])
        assert matmul(matmul(A, B), C) == matmul(A, matmul(B, C))
        assert matmul(A, A.invert()) == FMatrix.identity(f, 3)
        assert A.invert().invert() == A


def test_kernel_completion_can_be_singular(gf7):
    # a row orthogonal to itself: [C; kernel(C)] drops rank, so completing
    # with the kernel alone is not always enough
    C = FMatrix(gf7, [[2, 4, 1]])
    assert C.stack(kernel(C)).rank() == 2
    assert C.stack(complete_to_invertible(C)).rank() == 3


def test_complete_to_invertible_random():
    rng = random.Random(5)
    for q, (p, m) in [(2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (7, (7, 1))]:
        f = field_new(p, m)
        for _ in range(20):
            n = rng.randint(1, 4)
            r = rng.randint(0, n)
            if r:
                C = random_full_rank_matrix(rng, f, r, n)
            else:
                C = FMatrix(f, [], n)
            X = complete_to_invertible(C)
            assert X.rows == n - r
            assert C.stack(X).rank() == n


@pytest.mark.parametrize("p,m", [(2, 2), (7, 1)])
def test_combination_equals_dots_with_columns(p, m):
    f = field_new(p, m)
    q = f.order
    rng = random.Random(p * 10 + m)
    rows = [[rng.randrange(q) for _ in range(5)] for _ in range(4)]
    rows[2] = [0] * 5  # a zero row
    B = FMatrix(f, rows)
    coeff_rows = [[rng.randrange(q) for _ in range(4)] for _ in range(6)]
    coeff_rows += [[0] * 4, [0, 0, 1, 0], [1, 0, 0, 0]]  # zero and unit coefficients
    for coeffs in coeff_rows:
        got = combination(f, coeffs, B.data, B.cols)
        assert got == [f.dot(coeffs, column) for column in B.transpose().data]
    assert combination(f, [], [], 3) == [0, 0, 0]


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (7, 1), (2, 2), (2, 3), (3, 2), (3, 3),
                                 (2, 5), (65537, 1), (3, 11)])
def test_eliminate_then_lead_is_reduce_row(p, m):
    """On seeded echelon bases: `eliminate` leaves v minus a combination of
    the basis rows, 0 at every pivot; reducing by a basis and then by rows
    added to it later equals reducing by the grown basis (what the point-set
    walk carries); and `lead` scales the remainder to 1 at its first nonzero
    entry, as `reduce_row` does."""
    f = field_new(p, m)
    rng = random.Random(p * 100 + m)
    for _ in range(6):
        n = rng.randint(1, 6)
        rows = [[rng.randrange(f.order) for _ in range(n)] for _ in range(rng.randint(0, n))]
        basis = echelon(f, rows)
        for v in [[rng.randrange(f.order) for _ in range(n)] for _ in range(4)] + rows:
            r = eliminate(f, basis, v)
            assert all(r[pivot] == 0 for pivot, _ in basis)
            diff = [f.add(x, f.neg(y)) for x, y in zip(r, v)]
            assert FMatrix(f, [row for _, row in basis] + [diff], n).rank() == len(basis)
            for t in range(len(basis) + 1):
                assert eliminate(f, basis[t:], eliminate(f, basis[:t], v)) == r
            step = lead(f, r)
            assert step == reduce_row(f, basis, v)
            if step is None:
                assert not any(r)
            else:
                pivot, row = step
                assert not any(r[:pivot]) and row[pivot] == 1
                assert [f.mul(r[pivot], x) for x in row] == list(r)


def _reduction_with_identity(M):
    """(rows, pivots, rank) of [M | I] by `echelon` and `back_substitute`."""
    f, eye = M.field, FMatrix.identity(M.field, M.rows).data
    rows, pivots = back_substitute(f, echelon(f, [(*r, *e) for r, e in zip(M.data, eye)]))
    return tuple(map(tuple, rows)), pivots, sum(c < M.cols for c in pivots)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_kept_forms_equal_a_fresh_reduction(q):
    """A matrix's kept reduced form of [M | I] and kernel equal a fresh
    reduction's, on seeded matrices of full and of deficient row rank (an
    augment pivot, on which `null_space` of the whole form would index past
    the columns), with no rows or no columns; each is made once and kept."""
    f, rng = field_new(*prime_power_parts(q)), random.Random(q)
    deficient = 0
    for _ in range(30):
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        M = FMatrix(f, [[rng.randrange(q) for _ in range(cols)] for _ in range(rows)], cols)
        if rows > 1 and rng.random() < 0.5:  # a row repeated: rank below the row count
            M = M.stack(M.submatrix_rows([0]))
        assert M.reduced == _reduction_with_identity(M)
        assert M.kernel == kernel(M).data
        deficient += M.reduced[2] < M.rows
        assert M.reduced is M.reduced and M.kernel is M.kernel
    assert deficient
