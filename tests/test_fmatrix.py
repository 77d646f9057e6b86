import random

import pytest

from conftest import complete_to_invertible, random_full_rank_matrix
from wiretapnc.exceptions import (
    DimensionMismatch,
    FieldMismatch,
    NoSolution,
    SingularMatrix,
)
from wiretapnc.fmatrix import FMatrix, combination, dot
from wiretapnc.gf import field_new


def test_inverse_known_example(gf3):
    M = FMatrix(gf3, [[1, 1], [1, 2]])
    Minv = M.invert()
    assert M.mul_mat(Minv) == FMatrix.identity(gf3, 2)
    assert Minv.mul_mat(M) == FMatrix.identity(gf3, 2)


def test_singular_inverse_reports_rank(gf2):
    M = FMatrix(gf2, [[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix) as exc:
        M.invert()
    assert exc.value.rank == 1


def test_rref_and_pivots(gf7):
    M = FMatrix(gf7, [[0, 2, 4], [0, 3, 6]])
    R, pivots = M.rref()
    assert pivots == (1,)
    assert R.data == ((0, 1, 2), (0, 0, 0))
    assert M.rank() == 1
    assert M.row_basis().data == ((0, 1, 2),)


def test_null_space_annihilates_and_rank_nullity():
    rng = random.Random(3)
    for q, (p, m) in [(2, (2, 1)), (3, (3, 1)), (4, (2, 2)), (7, (7, 1))]:
        f = field_new(p, m)
        for _ in range(20):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            M = FMatrix(f, [[rng.randrange(q) for _ in range(cols)]
                            for _ in range(rows)])
            K = M.null_space_basis()
            assert M.rank() + K.rows == cols
            for v in K.data:
                assert M.mul_vec(list(v)) == [0] * rows
            assert K.rows == 0 or K.rank() == K.rows


def test_zero_row_matrix_is_first_class(gf3):
    Z = FMatrix(gf3, [], 3)
    assert Z.rank() == 0
    assert Z.null_space_basis() == FMatrix.identity(gf3, 3)
    assert Z.stack(FMatrix.identity(gf3, 3)).rank() == 3
    with pytest.raises(DimensionMismatch):
        FMatrix(gf3, [])


def test_solve(gf7):
    M = FMatrix(gf7, [[1, 2], [3, 4]])
    x, unique = M.solve([5, 6])
    assert unique
    assert M.mul_vec(x) == [5, 6]
    # underdetermined: solution exists but is not unique
    M2 = FMatrix(gf7, [[1, 2]])
    x, unique = M2.solve([3])
    assert not unique and M2.mul_vec(x) == [3]
    # inconsistent
    M3 = FMatrix(gf7, [[1, 1], [2, 2]])
    with pytest.raises(NoSolution):
        M3.solve([1, 1])


def test_structural_operations(gf3):
    M = FMatrix(gf3, [[1, 2, 0], [0, 1, 1]])
    assert M.transpose().data == ((1, 0), (2, 1), (0, 1))
    assert M.submatrix_columns([2, 0]).data == ((0, 1), (1, 0))
    assert M.submatrix_rows([1]).data == ((0, 1, 1),)
    assert M.column(1) == (2, 1)
    assert M.stack(M).rows == 4
    assert (M @ M.transpose()).data == ((2, 2), (2, 2))
    assert M.mul_vec([1, 1, 1]) == [0, 2]
    assert dot(gf3, [1, 2], [2, 2]) == 0


def test_dimension_and_field_guards(gf3, gf7):
    M = FMatrix(gf3, [[1, 2]])
    with pytest.raises(DimensionMismatch):
        FMatrix(gf3, [[1, 2], [1]])
    with pytest.raises(DimensionMismatch):
        M.stack(FMatrix(gf3, [[1, 2, 0]]))
    with pytest.raises(DimensionMismatch):
        M.mul_vec([1])
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
        assert (A @ B) @ C == A @ (B @ C)
        assert A @ A.invert() == FMatrix.identity(f, 3)
        assert A.invert().invert() == A


def test_kernel_completion_can_be_singular(gf7):
    # a row orthogonal to itself: [C; kernel(C)] drops rank, so completing
    # with the kernel alone is not always enough
    C = FMatrix(gf7, [[2, 4, 1]])
    assert C.stack(C.null_space_basis()).rank() == 2
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
def test_combination_equals_mul_mat_rows(p, m):
    f = field_new(p, m)
    q = f.order
    rng = random.Random(p * 10 + m)
    rows = [[rng.randrange(q) for _ in range(5)] for _ in range(4)]
    rows[2] = [0] * 5  # a zero row
    B = FMatrix(f, rows)
    coeff_rows = [[rng.randrange(q) for _ in range(4)] for _ in range(6)]
    coeff_rows += [[0] * 4, [0, 0, 1, 0], [1, 0, 0, 0]]  # zero and unit coefficients
    A = FMatrix(f, coeff_rows)
    product_rows = A.mul_mat(B).data
    for coeffs, want in zip(coeff_rows, product_rows):
        got = combination(f, coeffs, B.data, B.cols)
        assert tuple(got) == want
        assert got == [dot(f, coeffs, B.column(j)) for j in range(B.cols)]
    assert combination(f, [], [], 3) == [0, 0, 0]
