import random
from collections import Counter

import pytest

from conftest import (
    complete_to_invertible,
    fan_instance,
    inverse_and_select_equivocation,
    observation_equivocation,
    prime_power_parts,
    random_coded_instance,
    random_full_rank_matrix,
    reference_equivocation_rank,
    reference_first_violation,
)
from wiretapnc import equivocation, securecode
from wiretapnc.coset import rs_parity_check
from wiretapnc.equivocation import (
    equivocation_rank,
    equivocation_restricted_cut,
    equivocation_sweep,
    equivocation_underestimated,
    equivocation_wtc2,
    generalized_hamming_weights,
    network_dr_profile,
    wei_consistency_check,
)
from wiretapnc.exceptions import (
    BadBudgets,
    CutNotInvertible,
    DimensionMismatch,
    FieldMismatch,
    SingularMatrix,
    TooLargeForExhaustive,
)
from wiretapnc.fmatrix import FMatrix, reduce_row
from wiretapnc.gf import field_new
from wiretapnc.netgraph import NetworkCode, butterfly_code, parallel_network
from wiretapnc.securecode import (
    byzantine_secrecy_check,
    combination_secure_design,
    full_rank_observations,
    verify_secrecy_condition,
)


def test_butterfly_single_edge_leak(gf3):
    H = FMatrix(gf3, [[1, 1]])
    delta, witness, flagged = equivocation_rank(H, butterfly_code(gf3, (1, 1)), 1)
    assert (delta, witness, flagged) == (0, ("BE",), False)


def test_butterfly_secure_every_edge(gf3):
    H = FMatrix(gf3, [[1, 1]])
    code = butterfly_code(gf3, (1, 2))
    for eid in code.global_vectors:
        delta, _, _ = equivocation_rank(H, code, 1, restricted=[eid])
        assert delta == 1
    delta, _, _ = equivocation_rank(H, code, 1)
    assert delta == 1


def test_mu_zero_and_guards(gf3):
    H = FMatrix(gf3, [[1, 1]])
    code = butterfly_code(gf3)
    assert equivocation_rank(H, code, 0) == (1, (), False)
    with pytest.raises(DimensionMismatch):
        equivocation_rank(H, code, 10)
    # an H that does not fit the code is refused, not truncated to fit
    for other, error in ((FMatrix(field_new(5), [[1, 1]]), FieldMismatch),
                         (FMatrix(gf3, [[1, 1, 1]]), DimensionMismatch)):
        with pytest.raises(error):
            equivocation_rank(other, code, 1)
        with pytest.raises(error):
            verify_secrecy_condition(other, code, 1)


def test_sweep_and_dr_profile(gf3):
    H = FMatrix(gf3, [[1, 1]])
    report = equivocation_sweep(H, butterfly_code(gf3, (1, 2)), 2)
    assert report.delta == {0: 1, 1: 1, 2: 0}
    assert report.d_profile == {0: 0, 1: 2}
    insecure = network_dr_profile(H, butterfly_code(gf3, (1, 1)))
    assert insecure[1] == 1  # a single edge already reveals the secret


def test_rank_deficient_observations_are_flagged(gf2):
    # both edges carry the same symbol: a size-2 wiretap has rank 1
    net = parallel_network(2, gf2)
    code = NetworkCode(net)
    code.set_local("e0", (1, 0))
    code.set_local("e1", (1, 0))
    code.propagate()
    H = FMatrix(gf2, [[1, 1]])
    delta, witness, flagged = equivocation_rank(H, code, 2)
    assert (delta, flagged) == (1, True)
    assert witness == ("e0", "e1")


def test_wtc2_values(gf2, gf7):
    assert equivocation_wtc2(FMatrix(gf2, [[1, 1]]), 0) == 1
    assert equivocation_wtc2(FMatrix(gf2, [[1, 1]]), 1) == 1
    assert equivocation_wtc2(FMatrix(gf2, [[1, 1]]), 2) == 0
    H = FMatrix(gf7, [[1, 1, 1], [3, 2, 6]])
    assert equivocation_wtc2(H, 1) == 2
    assert equivocation_wtc2(H, 2) == 1
    # a zero column gives away nothing yet costs the remaining columns rank
    assert equivocation_wtc2(FMatrix(gf2, [[1, 0]]), 1) == 0


def test_underestimated_wiretapper():
    assert equivocation_underestimated(2, 1, 1) == 2
    assert equivocation_underestimated(2, 1, 2) == 1
    assert equivocation_underestimated(2, 1, 3) == 0
    assert equivocation_underestimated(1, 0, 5) == 0
    with pytest.raises(BadBudgets):
        equivocation_underestimated(2, 2, 1)
    with pytest.raises(BadBudgets):
        equivocation_underestimated(2, -1, 1)


def test_restricted_cut(gf3):
    code = butterfly_code(gf3, (1, 2))
    cut = ["AD", "ED"]
    B = code.coding_matrix(cut)
    H = FMatrix(gf3, [[1, 1]])
    H_cut = H.mul_mat(B.invert())  # coset code as seen across the cut
    for mu in (1, 2):
        assert equivocation_restricted_cut(H_cut, mu, code, cut) == \
            equivocation_rank(H, code, mu, restricted=cut)[0]
    # singular cut matrix is rejected
    with pytest.raises(CutNotInvertible):
        equivocation_restricted_cut(H, 1, code, ["BE", "ED"])


def test_generalized_hamming_weights(gf2, gf7):
    assert generalized_hamming_weights(FMatrix(gf2, [[1, 1]])) == [2]
    assert generalized_hamming_weights(FMatrix.identity(gf2, 2)) == [1, 2]
    # MDS code: d_r = n - K + r for an [n, K] code
    G = rs_parity_check(2, 4, gf7).null_space_basis().row_basis()
    assert generalized_hamming_weights(G) == [3, 4]
    with pytest.raises(SingularMatrix):
        generalized_hamming_weights(FMatrix(gf2, [[1, 1], [1, 1]]))
    with pytest.raises(TooLargeForExhaustive,
                       match=r"^q\^k = 9765625 exceeds GHW_CODEWORD_CAP = 1000000$"):
        generalized_hamming_weights(FMatrix.identity(field_new(5), 10))


def test_wei_consistency(gf2, gf7):
    G = FMatrix(gf2, [[1, 1]])
    # repetition code, mu = 1: the rank formula gives delta = 1
    assert wei_consistency_check(G, 1, 1)
    assert not wei_consistency_check(G, 1, 0)
    # MDS: delta(mu) = min(K, n - mu) in the restricted regime
    G = rs_parity_check(2, 4, gf7).null_space_basis().row_basis()
    n, K = G.cols, G.rows
    H = rs_parity_check(2, 4, gf7)
    for mu in range(n):
        delta = equivocation_wtc2(H, mu)
        assert wei_consistency_check(G, mu, delta)


def test_completion_used_by_rank_formula(gf7):
    # the minimizing observation can be self-orthogonal; the rank formula
    # must not depend on the kernel completion being invertible
    H = FMatrix(gf7, [[1, 1, 1], [3, 2, 6]])
    C = FMatrix(gf7, [[2, 4, 1]])
    assert C.stack(C.null_space_basis()).rank() < 3
    A = C.stack(complete_to_invertible(C))
    assert A.rank() == 3
    assert observation_equivocation(H, C) == inverse_and_select_equivocation(H, C) == 2


def test_kernel_equals_inverse_and_select_form():
    # rank [H; C] - rank C against the paper's inverse-and-select form, on
    # full-rank and rank-deficient observations (row-reduced for the form)
    rng = random.Random(9)
    seen = {"full": 0, "deficient": 0}
    for p, m in ((2, 1), (3, 1), (2, 2), (7, 1), (3, 2)):
        f = field_new(p, m)
        for _ in range(40):
            n = rng.randint(1, 5)
            H = random_full_rank_matrix(rng, f, rng.randint(1, n), n)
            rows = rng.randint(0, n + 1)
            C = FMatrix(f, [[rng.randrange(f.order) for _ in range(n)]
                            for _ in range(rows)], n)
            seen["full" if C.rank() == rows else "deficient"] += 1
            assert observation_equivocation(H, C) == \
                inverse_and_select_equivocation(H, C.row_basis())
    assert min(seen.values()) > 0


@pytest.mark.parametrize("q", [2, 3, 4, 7, 8, 9, 16])
def test_point_enumeration_equals_edge_subset_loop(q):
    # every mu from 0 to |E|, so mu > rank C_E (the closed form) is covered
    rng = random.Random(600 + q)
    seen = Counter()
    for _ in range(12):
        _, code, H = random_coded_instance(rng, q=q, max_edges=9)
        f, n = H.field, code.n
        ids = sorted(code.global_vectors)
        # one zero global vector and one nonzero multiple of another edge's
        zero, copy, source = rng.sample(ids, 3)
        code.global_vectors[zero] = (0,) * n
        code.global_vectors[copy] = tuple(
            f.mul(rng.randrange(1, q), x) for x in code.global_vectors[source])
        seen["parallel"] += any(code.global_vectors[source])
        G = random_full_rank_matrix(rng, f, n, n)
        for restricted in (None, sorted(rng.sample(ids, rng.randint(1, len(ids))))):
            edges = ids if restricted is None else restricted
            # each set of directions is yielded once, whichever edges carry it
            lines = [frozenset(code.coding_matrix([e]).row_basis() for e in W)
                     for W, *_ in full_rank_observations(code, edges, range(n + 1), H)]
            assert len(lines) == len(set(lines))
            for mu in range(len(edges) + 1):
                got = equivocation_rank(H, code, mu, restricted)
                assert got == reference_equivocation_rank(H, code, mu, restricted), mu
                seen["flagged" if got[2] else "full rank"] += 1
            for mu in range(n + 1):
                ok = verify_secrecy_condition(H, code, mu, restricted)
                assert ok == reference_first_violation(H, code, range(1, mu + 1), restricted)
                seen["violated"] += not ok[0]
                assert byzantine_secrecy_check(H, G, code, mu, restricted) == \
                    reference_first_violation(H, code, (mu,), restricted, G)
    assert min(seen[key] for key in ("parallel", "flagged", "full rank", "violated")) > 0


def test_dual_problem_on_large_combination_network():
    # B(4, 10): 850 edges over 10 coding-vector directions
    n, k = 4, 2
    design = combination_secure_design(n, 10, field_new(17), k)
    H, code = design.coset.parity_check, design.netcode
    assert len(code.global_vectors) == 850
    for mu in range(n + 1):
        delta, witness, flagged = equivocation_rank(H, code, mu)
        assert (delta, flagged) == (k - max(0, mu - (n - k)), False)
        assert len(witness) == mu
        if mu:
            assert equivocation_rank(H, code, mu, restricted=witness)[0] == delta


def test_fan_corpus_equals_edge_subset_loops(monkeypatch):
    """On seeded fan codes over GF(2)-GF(7), n <= 5, M <= 8 and every mu <=
    rank C_E, Delta(mu), witness and flag, and the secrecy and cascade
    verdicts, equal the plain edge-subset loops; and Delta's search both
    stops early (its walk is left unfinished) and prunes by the bound (a
    finished walk still reduces fewer rows than the unpruned walk)."""
    walk, steps, finished, seen = securecode.full_rank_observations, [0], [], Counter()

    def counted(*args):
        steps[0] += 1
        return reduce_row(*args)

    def watched(*args, **kwargs):
        yield from walk(*args, **kwargs)
        finished.append(True)

    monkeypatch.setattr(securecode, "reduce_row", counted)
    monkeypatch.setattr(equivocation, "full_rank_observations", watched)
    rng = random.Random(12)
    for q in (2, 3, 4, 5, 7) * 5:
        f = field_new(*prime_power_parts(q))
        n = rng.randint(2, 5)
        code, H = fan_instance(rng, f, rng.randint(2, 8), n, rng.randint(1, n))
        G = random_full_rank_matrix(rng, f, n, n)
        edges = sorted(code.global_vectors)
        for mu in range(1, code.coding_matrix(edges).rank() + 1):
            steps[0], finished[:] = 0, []
            got = equivocation_rank(H, code, mu)
            searched = steps[0]
            assert got == reference_equivocation_rank(H, code, mu), (q, mu)
            steps[0] = 0
            list(walk(code, edges, (mu,), H))
            if not finished:
                seen["stopped"] += 1
            elif searched < steps[0]:
                seen["pruned"] += 1
            assert verify_secrecy_condition(H, code, mu) == \
                reference_first_violation(H, code, range(1, mu + 1))
            assert byzantine_secrecy_check(H, G, code, mu) == \
                reference_first_violation(H, code, (mu,), None, G)
    assert seen["stopped"] and seen["pruned"], seen


def test_point_set_walk_builds_no_matrix_per_set(monkeypatch):
    """verify_secrecy_condition and equivocation_rank at mu = 2 build and
    eliminate as many FMatrix objects on B(4, 8) as on B(4, 6): the count
    does not grow with the number of point sets (36 against 21)."""
    designs = [combination_secure_design(4, M, field_new(11), 2) for M in (6, 8)]
    counts = []
    for design in designs:
        H, code, calls = design.coset.parity_check, design.netcode, Counter()
        for name in ("__init__", "_echelon"):
            def spy(*args, _name=name, _method=getattr(FMatrix, name), **kwargs):
                calls[_name] += 1
                return _method(*args, **kwargs)
            monkeypatch.setattr(FMatrix, name, spy)
        assert verify_secrecy_condition(H, code, 2) == (True, None)
        assert equivocation_rank(H, code, 2) == (2, ("Sm0", "Sm1"), False)
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1]
