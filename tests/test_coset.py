import random
from itertools import product

import pytest

from conftest import prime_power_parts, random_full_rank_matrix
from wiretapnc.coset import (
    CosetCode,
    gabidulin_parity_check,
    is_mds_parity_check,
    lift_matrix,
    rs_parity_check,
    universal_secrecy_check,
)
from wiretapnc.exceptions import (
    BadParameters,
    DimensionMismatch,
    ExtensionTooSmall,
    LengthExceedsField,
    SingularMatrix,
)
from wiretapnc.fmatrix import FMatrix, combination, echelon
from wiretapnc.gf import field_new
from wiretapnc.netgraph import butterfly_network
from wiretapnc.securecode import secure_lif


def test_binary_repetition_cosets(gf2):
    """One secret bit on two channel symbols: cosets {00,11} and {01,10}."""
    code = CosetCode(FMatrix(gf2, [[1, 1]]))
    words = {s: {tuple(code.encode_with_randomness([s], [r])) for r in (0, 1)}
             for s in (0, 1)}
    assert words[0] == {(0, 0), (1, 1)}
    assert words[1] == {(0, 1), (1, 0)}


def test_requires_full_row_rank(gf2):
    with pytest.raises(SingularMatrix):
        CosetCode(FMatrix(gf2, [[1, 1], [1, 1]]))


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_a_rank_deficient_h_is_refused_on_every_call(q):
    """A rank-deficient H is refused with the same SingularMatrix message and
    rank by every CosetCode, secure_lif and (square H) invert call, and
    what it keeps is whole: its reduced form and kernel equal those of a
    value-equal copy, and the kernel has n - rank rows that H annihilates."""
    f = field_new(*prime_power_parts(q))
    rng, net = random.Random(40 + q), butterfly_network(f)
    for rows, rank in ((2, 1), (2, 0)):
        top = random_full_rank_matrix(rng, f, rank, 2) if rank else FMatrix(f, [], 2)
        H = top.stack(FMatrix(f, [combination(f, [rng.randrange(q) for _ in range(rank)],
                                              top.data, 2) for _ in range(rows - rank)], 2))
        calls = [lambda: CosetCode(H), lambda: secure_lif(net, 2, 0, H), H.invert]
        refusals = set()
        for _ in range(3):
            for call in calls:
                with pytest.raises(SingularMatrix) as exc:
                    call()
                refusals.add((str(exc.value), exc.value.rank))
        assert refusals == {(f"parity check must have full row rank {rows}", rank),
                            (f"singular matrix of rank {rank}", rank)}
        copy = FMatrix(f, H.data, 2)
        assert (H.reduced, H.kernel) == (copy.reduced, copy.kernel)
        assert len(H.kernel) == 2 - rank
        assert all(H.mul_vec(v) == [0, 0] for v in H.kernel)


def test_decode_inverts_encode_exhaustively():
    for p, m, k, n in [(2, 1, 1, 3), (3, 1, 2, 4), (2, 2, 1, 2), (7, 1, 2, 3)]:
        f = field_new(p, m)
        q = f.order
        rng = random.Random(n)
        while True:
            H = FMatrix(f, [[rng.randrange(q) for _ in range(n)] for _ in range(k)])
            if H.rank() == k:
                break
        code = CosetCode(H)
        for secret in product(range(q), repeat=k):
            for r in product(range(q), repeat=n - k):
                y = code.encode_with_randomness(list(secret), list(r))
                assert code.decode(y) == list(secret)


def test_cosets_partition_the_space(gf3):
    """Each secret's coset has q^(n-k) distinct words; cosets are disjoint."""
    code = CosetCode(FMatrix(gf3, [[1, 1, 1], [0, 1, 2]]))
    seen = set()
    for secret in product(range(3), repeat=2):
        coset = {tuple(code.encode_with_randomness(list(secret), [r]))
                 for r in range(3)}
        assert len(coset) == 3
        assert not coset & seen
        seen |= coset
    assert len(seen) == 27


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (7, 1), (3, 2)])
def test_particular_solution_has_syndrome_and_pivot_support(p, m):
    """The word [secret 0] G, with no randomness, has syndrome `secret` and is
    nonzero only on H's pivot columns."""
    f = field_new(p, m)
    q = f.order
    n = 3
    rng = random.Random(q)
    for k in (0, 1, n - 1):
        while True:
            H = FMatrix(f, [[rng.randrange(q) for _ in range(n)] for _ in range(k)], n)
            if H.rank() == k:
                break
        code = CosetCode(H)
        pivots = [pivot for pivot, _ in echelon(f, H.data)]
        for secret in product(range(q), repeat=k):
            y = code.encode_with_randomness(list(secret), [0] * (n - k))
            assert code.decode(y) == list(secret)
            assert all(not y[j] for j in range(n) if j not in pivots)


def test_seeded_encode_is_deterministic(gf3):
    code = CosetCode(FMatrix(gf3, [[1, 1]]))
    assert code.encode([2], seed=5) == code.encode([2], seed=5)
    assert code.decode(code.encode([2], seed=5)) == [2]
    assert code.decode(code.encode([2], seed=6)) == [2]


def test_dimension_guards(gf3):
    code = CosetCode(FMatrix(gf3, [[1, 1]]))
    with pytest.raises(DimensionMismatch):
        code.encode_with_randomness([1, 2], [0])
    with pytest.raises(DimensionMismatch):
        code.encode_with_randomness([1], [0, 0])


def test_rs_parity_check_gf7(gf7):
    H = rs_parity_check(3, 6, gf7)
    assert [list(r) for r in H.data] == [
        [1, 3, 2, 6, 4, 5],
        [1, 2, 4, 1, 2, 4],
        [1, 6, 1, 6, 1, 6],
    ]


def test_rs_parity_check_is_mds(gf7):
    for n in (1, 2, 3):
        ok, witness = is_mds_parity_check(rs_parity_check(n, 6, gf7))
        assert ok and witness is None


def test_rs_length_bound(gf3):
    with pytest.raises(LengthExceedsField):
        rs_parity_check(1, 3, gf3)


def test_is_mds_counterexample(gf2):
    ok, witness = is_mds_parity_check(FMatrix(gf2, [[1, 0, 1]]))
    assert not ok and witness == (1,)


def test_gabidulin_requirements(gf2):
    with pytest.raises(ExtensionTooSmall):
        gabidulin_parity_check(3, 1, gf2, 2)  # m < n
    with pytest.raises(ExtensionTooSmall):
        gabidulin_parity_check(2, 1, field_new(2, 2), 2)  # non-prime base


def test_parity_checks_of_no_rows_keep_their_columns(gf2, gf7):
    assert rs_parity_check(0, 6, gf7) == FMatrix(gf7, [], 6)
    for n in (0, 1, 2, 3):  # the [n, n] code checks nothing
        assert gabidulin_parity_check(n, n, gf2, 3) == FMatrix(field_new(2, 3), [], n)


def test_gabidulin_refuses_k_outside_0_to_n(gf3):
    for k in (-1, 3):
        with pytest.raises(BadParameters, match=f"k={k} must lie between 0 and n=2"):
            gabidulin_parity_check(2, k, gf3, 2)
    assert gabidulin_parity_check(2, 0, gf3, 2).rows == 2


def test_gabidulin_moore_structure(gf2):
    H = gabidulin_parity_check(2, 1, gf2, 2)
    ext = field_new(2, 2)
    # g = (1, x) encode as (1, 2); row i applies the Frobenius q^i
    assert H.data == ((1, 2),)
    H3 = gabidulin_parity_check(3, 1, gf2, 3)
    assert H3.rows == 2 and H3.cols == 3
    f8 = field_new(2, 3)
    assert H3.data[0] == (1, 2, 4)
    assert H3.data[1] == tuple(f8.pow(g, 2) for g in (1, 2, 4))


def test_universal_secrecy_exhaustive_gf4(gf2):
    H = gabidulin_parity_check(2, 1, gf2, 2)
    count = 0
    for bits in product((0, 1), repeat=2):
        B = FMatrix(gf2, [list(bits)], 2)
        if B.rank() != 1:
            continue
        count += 1
        assert universal_secrecy_check(H, B)
    assert count == 3


def test_universal_secrecy_prime_counterexample(gf2):
    H = FMatrix(gf2, [[1, 1]])
    B = FMatrix(gf2, [[1, 1]])
    assert not universal_secrecy_check(H, B)


def test_lift_matrix(gf2):
    ext = field_new(2, 2)
    M = lift_matrix(FMatrix(gf2, [[1, 0], [1, 1]]), ext)
    assert M.field is ext and M.data == ((1, 0), (1, 1))
    with pytest.raises(DimensionMismatch):
        lift_matrix(FMatrix(field_new(3), [[1]]), ext)
