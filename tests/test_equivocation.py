import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from conftest import (
    complete_to_invertible,
    fan_instance,
    inverse_and_select_equivocation,
    kernel,
    matmul,
    observation_equivocation,
    plane_fan_instance,
    prime_power_parts,
    random_coded_instance,
    random_full_rank_matrix,
    reference_equivocation_rank,
    reference_first_violation,
    reference_walk,
    row_space,
)
from wiretapnc import equivocation, securecode
from wiretapnc.coset import rs_parity_check
from wiretapnc.equivocation import (
    equivocation_rank,
    equivocation_restricted_cut,
    equivocation_sweep,
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
)
from wiretapnc.fmatrix import FMatrix, combination, eliminate, lead_form
from wiretapnc.gf import field_new
from wiretapnc.netgraph import NetworkCode, butterfly_code, combination_network, parallel_network
from wiretapnc.oracle import min_equivocation_bruteforce
from wiretapnc.securecode import (
    byzantine_secrecy_check,
    combination_secure_design,
    full_rank_observations,
    observation_points,
    verify_secrecy_condition,
    wiretappable_edges,
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


def test_restricted_cut(gf3):
    code = butterfly_code(gf3, (1, 2))
    cut = ["AD", "ED"]
    B = code.coding_matrix(cut)
    H = FMatrix(gf3, [[1, 1]])
    H_cut = matmul(H, B.invert())  # coset code as seen across the cut
    for mu in (1, 2):
        assert equivocation_restricted_cut(H_cut, mu, code, cut) == \
            equivocation_rank(H, code, mu, restricted=cut)[0]
    # singular cut matrix is rejected
    with pytest.raises(CutNotInvertible):
        equivocation_restricted_cut(H, 1, code, ["BE", "ED"])
    # the wiretap search is admitted first: H's width and field, mu and the cut's edges
    with pytest.raises(DimensionMismatch, match="H has 3 columns, expected 2"):
        equivocation_restricted_cut(FMatrix(gf3, [[1, 1, 1]]), 1, code, cut)
    with pytest.raises(BadBudgets, match="mu=-1 must be non-negative"):
        equivocation_restricted_cut(H_cut, -1, code, cut)
    with pytest.raises(FieldMismatch):
        equivocation_restricted_cut(FMatrix(field_new(5), [[1, 1]]), 1, code, cut)
    with pytest.raises(DimensionMismatch, match=r"unknown edges \['XX'\]"):
        equivocation_restricted_cut(H_cut, 1, code, ["AD", "XX"])
    with pytest.raises(BadBudgets, match="mu=-3 must be non-negative"):
        equivocation_wtc2(H_cut, -3)


def test_generalized_hamming_weights(gf2, gf7):
    assert generalized_hamming_weights(FMatrix(gf2, [[1, 1]])) == [2]
    assert generalized_hamming_weights(FMatrix.identity(gf2, 2)) == [1, 2]
    # MDS code: d_r = n - K + r for an [n, K] code
    G = kernel(rs_parity_check(2, 4, gf7))
    assert generalized_hamming_weights(G) == [3, 4]
    # an extension field, and k = 3 over an odd prime field
    assert generalized_hamming_weights(
        FMatrix(field_new(2, 2), [[1, 1, 1, 0], [0, 1, 2, 3]])) == [3, 4]
    assert generalized_hamming_weights(FMatrix(
        field_new(3), [[1, 1, 1, 0, 0], [0, 1, 2, 1, 0], [0, 0, 1, 1, 1]])) == [2, 4, 5]
    with pytest.raises(SingularMatrix):
        generalized_hamming_weights(FMatrix(gf2, [[1, 1], [1, 1]]))


def test_wei_consistency(gf2, gf7):
    G = FMatrix(gf2, [[1, 1]])
    # repetition code, mu = 1: the rank formula gives delta = 1
    assert wei_consistency_check(G, 1, 1)
    assert not wei_consistency_check(G, 1, 0)
    # MDS: delta(mu) = min(K, n - mu) in the restricted regime
    G = kernel(rs_parity_check(2, 4, gf7))
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
    assert C.stack(kernel(C)).rank() < 3
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
                inverse_and_select_equivocation(H, row_space(C))
    assert min(seen.values()) > 0


def distinct_directions(code, sets):
    """Whether no two of the edge sets carry the same set of directions."""
    lines = [frozenset(row_space(code.coding_matrix([e])) for e in W) for W in sets]
    return len(lines) == len(set(lines))


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
        # each set of directions is yielded once, whichever edges carry it, by
        # the walk, which yields running minima only, and by the plain loop that
        # it is checked against (`reference_walk`), which yields every set
        assert distinct_directions(code, [W for size in range(n + 1)
                                          for W, _ in reference_walk(H, code, size)])
        for restricted in (None, sorted(rng.sample(ids, rng.randint(1, len(ids))))):
            edges = ids if restricted is None else restricted
            assert distinct_directions(code, [W for W, _ in full_rank_observations(
                f, *observation_points(code, edges, H), range(n + 1))])
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


def count_row_steps(monkeypatch):
    """A one-element list that counts the walk's row steps from here on:
    remainders reduced by one basis row each (`securecode.eliminate`)."""
    steps = [0]

    def counted(field, basis, v):
        steps[0] += len(basis)
        return eliminate(field, basis, v)

    monkeypatch.setattr(securecode, "eliminate", counted)
    return steps


def test_fan_corpus_equals_edge_subset_loops(monkeypatch):
    """On seeded fan codes over GF(2)-GF(9), n <= 5, M <= 8 and every mu <=
    rank C_E, Delta(mu), witness and flag, and the secrecy and cascade
    verdicts, equal the plain edge-subset loops; and Delta's search both
    stops early (its walk is left unfinished) and cuts by the bound (a
    finished walk yields fewer sets than the plain loop finds full-rank sets
    of distinct directions, `reference_walk`)."""
    walk, finished, seen = securecode.full_rank_observations, [], Counter()

    def watched(*args):
        yield from walk(*args)
        finished.append(True)

    monkeypatch.setattr(equivocation, "full_rank_observations", watched)
    rng = random.Random(12)
    for q in (2, 3, 4, 5, 7, 8, 9) * 5:
        f = field_new(*prime_power_parts(q))
        n = rng.randint(2, 5)
        code, H = fan_instance(rng, f, rng.randint(2, 8), n, rng.randint(1, n))
        G = random_full_rank_matrix(rng, f, n, n)
        edges = sorted(code.global_vectors)
        for mu in range(1, code.coding_matrix(edges).rank() + 1):
            finished[:] = []
            got = equivocation_rank(H, code, mu)
            assert got == reference_equivocation_rank(H, code, mu), (q, mu)
            if not finished:
                seen["stopped"] += 1
            elif len(list(walk(f, *observation_points(code, edges, H), (mu,)))) < \
                    len(reference_walk(H, code, mu)):
                seen["cut"] += 1
            assert verify_secrecy_condition(H, code, mu) == \
                reference_first_violation(H, code, range(1, mu + 1))
            assert byzantine_secrecy_check(H, G, code, mu) == \
                reference_first_violation(H, code, (mu,), None, G)
    assert seen["stopped"] and seen["cut"], seen


def test_fan_delta_row_steps_pinned(monkeypatch):
    """The walk's work on fan Delta(5) over GF(31) (M=30, n=8, k=3,
    random.Random(1)), in row steps: remainders reduced by one basis row, the
    k rows of H once per point at the root, then one new row of each basis
    per later point per level above the one over the leaves, which compares
    lead forms instead.  A deterministic guard on the walk's cost."""
    steps = count_row_steps(monkeypatch)
    code, H = fan_instance(random.Random(1), field_new(31), 30, 8, 3)
    assert equivocation_rank(H, code, 5) == (2, ("Sv0", "Sv1", "Sv10", "Sv13", "Sv20"), False)
    assert steps[0] == 62958


def test_every_analysis_refuses_a_rank_deficient_parity_check(gf3):
    """H = [[1, 1], [2, 2]] has rank 1 below its k = 2 rows.  Every analysis
    refuses it at mu = 0 and mu = 1, before any shortcut, with the coset
    code's own refusal: unrefused, Delta(0) would read 2 where H(S) = 1, and
    the plain and cascade checks (G = I) would disagree at mu = 0."""
    H, G = FMatrix(gf3, [[1, 1], [2, 2]]), FMatrix.identity(gf3, 2)
    code = butterfly_code(gf3, (1, 2))
    for mu in (0, 1):
        for call in (lambda: verify_secrecy_condition(H, code, mu),
                     lambda: byzantine_secrecy_check(H, G, code, mu),
                     lambda: equivocation_rank(H, code, mu),
                     lambda: equivocation_sweep(H, code, mu),
                     lambda: network_dr_profile(H, code),
                     lambda: min_equivocation_bruteforce(H, code, mu),
                     lambda: equivocation_restricted_cut(H, mu, code, ["SA", "SC"])):
            with pytest.raises(SingularMatrix,
                               match="^parity check must have full row rank 2$") as refused:
                call()
            assert refused.value.rank == 1


def test_kept_analyses_at_mu_2_do_no_field_arithmetic(monkeypatch):
    """On a kept code, mu = 2 equivocation_rank, verify_secrecy_condition and
    byzantine_secrecy_check take no row step and scale no row after their
    first calls: the points, already lead forms, rank C_E and the floor are
    kept, and the root, the one node above the leaves, compares its points.
    Every answer equals the plain edge-subset loop's."""
    steps, scaled = count_row_steps(monkeypatch), [0]
    for name in ("lead", "lead_form"):
        def counted(field, v, _scale=getattr(securecode, name)):
            scaled[0] += 1
            return _scale(field, v)
        monkeypatch.setattr(securecode, name, counted)
    rng = random.Random(34)
    code, H = fan_instance(rng, field_new(7), 12, 4, 2)
    G = random_full_rank_matrix(rng, code.field, 4, 4)

    def analyses():
        return [equivocation_rank(H, code, 2), verify_secrecy_condition(H, code, 2),
                byzantine_secrecy_check(H, G, code, 2)]

    first = analyses()
    assert first == [reference_equivocation_rank(H, code, 2),
                     reference_first_violation(H, code, (1, 2)),
                     reference_first_violation(H, code, (2,), None, G)]
    assert steps[0] and scaled[0]
    for _ in range(2):
        steps[0] = scaled[0] = 0
        assert analyses() == first
        assert steps[0] == scaled[0] == 0


@pytest.mark.parametrize("q", [2, 4, 7, 9])
def test_walk_equals_the_edge_subset_loop(q):
    """At sizes 2 and 3, with and without a cascade G, the walk's whole
    (W, d) sequence equals the plain loop's running minima (`reference_walk`
    with `least`), on a fresh preparation and on one walked before; on
    seeded fan codes with zero and parallel vectors, where three directions
    can be dependent and the running minimum cuts sets."""
    rng, f, seen = random.Random(3400 + q), field_new(*prime_power_parts(q)), Counter()
    for n in (2, 3, 3, 4):
        code, H = fan_instance(rng, f, rng.randint(3, 8), n, rng.randint(1, n))
        with_zero_and_parallel(rng, code)
        edges = code.network.sorted_edge_ids
        for G in (None, random_full_rank_matrix(rng, f, n, n)):
            prepared = observation_points(code, edges, H, G)
            for size in (2, 3):
                whole = reference_walk(H, code, size, G)
                want = reference_walk(H, code, size, G, least=True)
                for _ in range(2):
                    got = full_rank_observations(f, *prepared, (size,))
                    assert list(got) == want, (size, G is None)
                seen["cut"] += len(want) < len(whole)
                seen["dependent"] += len(whole) < comb(len(prepared[1]), size)
    assert seen["cut"] and seen["dependent"], seen


@pytest.mark.parametrize("q", [2, 4, 7, 9])
def test_every_point_is_in_lead_form(q):
    """Every point of a preparation, kept (over every edge) or restricted,
    with and without a cascade G, is in lead form: its direction is
    `lead_form` of its first edge's vector, and its remainder by H is a
    tuple 1 at its first nonzero entry, or () when it lies in span H.  On
    seeded fan codes with zero and parallel vectors."""
    rng, f, seen = random.Random(3500 + q), field_new(*prime_power_parts(q)), Counter()
    for n in (2, 3, 3, 4):
        code, H = fan_instance(rng, f, rng.randint(3, 8), n, rng.randint(1, n))
        ids = sorted(with_zero_and_parallel(rng, code).global_vectors)
        for edges in (ids, rng.sample(ids, rng.randint(1, len(ids)))):
            edges = wiretappable_edges(code, edges)
            for G in (None, random_full_rank_matrix(rng, f, n, n)):
                for e, direction, h in observation_points(code, edges, H, G)[1]:
                    assert direction == lead_form(f, code.global_vectors[e]) != ()
                    assert type(h) is tuple and (h == () or next(filter(None, h)) == 1), h
                    seen[h == ()] += 1
    assert seen[True] and seen[False], seen


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_delta_steps_down_by_at_most_one_and_d_profile_is_its_definition(q):
    """On seeded sweeps to |E|, with and without a restricted set, Delta(mu + 1)
    is Delta(mu) or Delta(mu) - 1, and d_profile equals the nested-loop
    definition: for r = 0..k, the smallest mu with Delta(mu) = k - r, if any,
    in the order of r."""
    rng = random.Random(900 + q)
    for _ in range(6):
        _, code, H = random_coded_instance(rng, q=q, max_edges=8)
        ids = sorted(code.global_vectors)
        for restricted in (None, sorted(rng.sample(ids, rng.randint(1, len(ids))))):
            mu_max = len(ids if restricted is None else restricted)
            report = equivocation_sweep(H, code, mu_max, restricted)
            delta, k, profile = report.delta, H.rows, {}
            assert all(delta[mu] - delta[mu + 1] in (0, 1) for mu in range(mu_max)), delta
            for r in range(k + 1):
                for mu in range(mu_max + 1):
                    if delta[mu] == k - r:
                        profile[r] = mu
                        break
            assert list(report.d_profile.items()) == list(profile.items())


def test_sweep_refuses_a_huge_mu_max_before_any_preparation(gf3, monkeypatch):
    """mu_max = 10**9 is refused with the first mu past |E| = 9, found without
    a walk over the whole range, before any point is prepared."""
    monkeypatch.setattr(equivocation, "observation_points", None)  # a call would fail
    with pytest.raises(DimensionMismatch, match="^mu=10 exceeds 9 wiretappable edges$"):
        equivocation_sweep(FMatrix(gf3, [[1, 1]]), butterfly_code(gf3), 10 ** 9)


@pytest.mark.parametrize("call, message", [
    (equivocation_sweep, "mu_max=-1 must be non-negative"),
    (equivocation_rank, "mu=-1 must be non-negative"),
    (min_equivocation_bruteforce, "mu=-1 must be non-negative"),
], ids=["sweep", "rank", "oracle"])
def test_a_negative_budget_is_refused_before_another_field(gf3, call, message):
    """The budget is checked first, before H's field: an H over GF(5) on a
    GF(3) code at mu (or mu_max) = -1 is a BadBudgets, not a FieldMismatch."""
    with pytest.raises(BadBudgets, match=f"^{message}$"):
        call(FMatrix(field_new(5), [[1, 1]]), butterfly_code(gf3), -1)


def test_plane_fan_walk_yields_one_pair():
    """Over GF(31) the plane fan code (`plane_fan_instance`, the instance of
    CI's GF(2003) wall) keeps the secrecy condition at mu = 2, as the plain
    edge-subset loop finds, and its size-2 walk yields one pair: every pair
    has d = k = 1, so none after the first lowers the running minimum (a walk
    that yields every full-rank set gives all choose(32, 2) = 496)."""
    f = field_new(31)
    code, H = plane_fan_instance(f)
    assert verify_secrecy_condition(H, code, 2) == (True, None) == \
        reference_first_violation(H, code, (1, 2))
    walked = list(full_rank_observations(
        f, *observation_points(code, code.network.sorted_edge_ids, H), (2,)))
    assert walked == [(("Sv0", "Sv1"), 1)]


def test_secure_cascade_walk_yields_one_set(monkeypatch):
    """On the secure B(4, 6) design over GF(11) at mu = 2, with G = I, the
    cascade check holds, as the plain edge-subset loop finds, and its walk
    yields one set, the first: every full-rank pair has d = k = 2, so none
    after it lowers the running minimum (a walk that yields every full-rank
    set gives all choose(6, 2) = 15 pairs of source out-edges)."""
    design = combination_secure_design(4, 6, field_new(11), 2)
    H, code = design.coset.parity_check, design.netcode
    G, walk, walked = FMatrix.identity(code.field, 4), securecode.full_rank_observations, []

    def recorded(*args):
        for W, d in walk(*args):
            walked.append((W, d))
            yield W, d

    monkeypatch.setattr(securecode, "full_rank_observations", recorded)
    assert byzantine_secrecy_check(H, G, code, 2) == (True, None) == \
        reference_first_violation(H, code, (2,), None, G)
    assert walked == [(("Sm0", "Sm1"), 2)]


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


def with_zero_and_parallel(rng, code):
    """The code with one edge's vector zeroed and another's a nonzero
    multiple of a third edge's, as the walk merges both."""
    f, ids = code.field, sorted(code.global_vectors)
    zero, copy, source = rng.sample(ids, 3)
    code.global_vectors[zero] = (0,) * code.n
    code.global_vectors[copy] = tuple(
        f.mul(rng.randrange(1, f.order), x) for x in code.global_vectors[source])
    return code


@pytest.mark.parametrize("q", [3, 7, 2, 4, 8, 9, 25])
def test_sweep_equals_separate_rank_calls(q):
    """equivocation_sweep to mu_max = |E| reports at every mu the delta,
    witness and flag that a separate equivocation_rank call gives, on seeded
    random codes with a zero vector and parallel vectors, with and without a
    restricted set; past |E| it refuses with equivocation_rank's refusal of
    the first mu past |E|."""
    rng, seen = random.Random(700 + q), Counter()
    for _ in range(6):
        _, code, H = random_coded_instance(rng, q=q, max_edges=8)
        ids = sorted(with_zero_and_parallel(rng, code).global_vectors)
        for restricted in (None, sorted(rng.sample(ids, rng.randint(1, len(ids))))):
            edges = ids if restricted is None else restricted
            report = equivocation_sweep(H, code, len(edges), restricted)
            for mu in range(len(edges) + 1):
                got = report.delta[mu], report.witnesses[mu], report.flagged[mu]
                assert got == equivocation_rank(H, code, mu, restricted), mu
                seen[got[2]] += 1
            refusal = f"^mu={len(edges) + 1} exceeds {len(edges)} wiretappable edges$"
            with pytest.raises(DimensionMismatch, match=refusal):
                equivocation_sweep(H, code, len(edges) + 2, restricted)
    assert seen[True] and seen[False], seen


def forwarding_combination_code(rng, f, n, M, r):
    """B(n, M) with source vectors drawn from a random r-dimensional
    subspace and a middle layer that only forwards them."""
    code = NetworkCode(combination_network(n, M, f))
    span = random_full_rank_matrix(rng, f, r, n)
    for e in code.network.edges:
        coeffs = [rng.randrange(f.order) for _ in range(r)]
        code.set_local(e.id, combination(f, coeffs, span.data, n) if e.tail == "S" else (1,))
    code.propagate()
    return code


def test_ranks_read_off_the_points_equal_direct_elimination():
    """rank H, rank C_E and rank [H; C_E] read off the walk's points (H's
    basis, the directions and their remainders by H) equal eliminations of
    H, of every edge row and of [H; C_E]; Delta(mu) past rank C_E is the
    floor rank [H; C_E] - rank C_E, flagged, with a witness spanning C_E, and
    up to rank C_E (mu <= 2 on the combination networks) equals the plain
    edge-subset loop.  On forwarding-heavy combination networks and random
    codes."""
    rng, seen = random.Random(31), Counter()
    instances = []
    for q, n, M in ((5, 3, 5), (7, 4, 6), (4, 3, 4), (9, 2, 4)):
        f = field_new(*prime_power_parts(q))
        for r in range(1, n + 1):
            code = forwarding_combination_code(rng, f, n, M, r)
            instances.append((code, random_full_rank_matrix(rng, f, rng.randint(1, n), n), 2))
    for q in (2, 3, 8, 9):
        _, code, H = random_coded_instance(rng, q=q, max_edges=8)
        instances.append((with_zero_and_parallel(rng, code), H, code.n))
    for code, H, top in instances:
        f, n, edges = code.field, code.n, sorted(code.global_vectors)
        base, points = observation_points(code, edges, H)
        C = code.coding_matrix(edges)
        rank_E = FMatrix(f, [v for _, v, _ in points], n).rank()
        rank_HE = len(base) + FMatrix(f, [h for *_, h in points if h], n).rank()
        assert (len(base), rank_E, rank_HE) == (H.rank(), C.rank(), H.stack(C).rank())
        floor = observation_equivocation(H, C)
        for mu in range(1, len(edges) + 1):
            if mu <= min(rank_E, top):
                got = equivocation_rank(H, code, mu)
                assert got == reference_equivocation_rank(H, code, mu), mu
                seen["floor reached"] += got[0] == floor
            elif mu > rank_E and mu <= rank_E + 2:
                delta, witness, flagged = equivocation_rank(H, code, mu)
                assert (delta, flagged, len(witness)) == (floor, True, mu)
                assert code.coding_matrix(witness).rank() == rank_E
                seen["flagged"] += 1
    assert seen["floor reached"] and seen["flagged"], seen


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_flagged_witness_is_the_first_subset_spanning_C_E(q):
    """For every mu past rank C_E, equivocation_rank and one sweep report
    the floor rank [H; C_E] - rank C_E, flagged, with the first mu-subset in
    lexicographic order whose rank is rank C_E.  On seeded random codes whose
    vectors are drawn from a random subspace, with zero vectors and repeated
    directions, with and without a restricted set."""
    rng, seen = random.Random(900 + q), Counter()
    for _ in range(8):
        _, code, H = random_coded_instance(rng, q=q, max_edges=9)
        f, n, ids = code.field, code.n, sorted(code.global_vectors)
        span = random_full_rank_matrix(rng, f, rng.randint(1, n), n)
        drawn = []
        for eid in ids:
            kind = rng.choice(("zero", "repeat", "span", "span"))
            kind = "span" if kind == "repeat" and not drawn else kind
            if kind == "zero":
                vec = (0,) * n
            elif kind == "repeat":
                vec = tuple(f.mul(rng.randrange(1, q), x) for x in rng.choice(drawn))
            else:
                vec = tuple(combination(f, [rng.randrange(q) for _ in span.data], span.data, n))
            code.global_vectors[eid] = vec
            drawn.append(vec)
            seen[kind] += 1
        for restricted in (None, sorted(rng.sample(ids, rng.randint(1, len(ids))))):
            edges = ids if restricted is None else restricted
            C = code.coding_matrix(edges)
            rank_E, floor = C.rank(), observation_equivocation(H, C)
            report = equivocation_sweep(H, code, len(edges), restricted)
            for mu in range(rank_E + 1, len(edges) + 1):
                want = next(W for W in combinations(edges, mu)
                            if code.coding_matrix(W).rank() == rank_E)
                assert equivocation_rank(H, code, mu, restricted) == (floor, want, True), mu
                got = report.delta[mu], report.witnesses[mu], report.flagged[mu]
                assert got == (floor, want, True), mu
                seen["not a prefix"] += want != tuple(edges[:mu])
    assert min(seen[key] for key in ("zero", "repeat", "span", "not a prefix")) > 0, seen


def test_one_preparation_per_analysis(monkeypatch):
    """Each equivocation_rank call with mu > 0 (flagged or not), each
    verify_secrecy_condition and byzantine_secrecy_check call prepares the
    walk's points once; a sweep prepares once for every mu_max >= 1, and not
    at all for mu_max = 0."""
    prepare, calls = securecode.observation_points, []

    def counted(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    for module in (securecode, equivocation):
        monkeypatch.setattr(module, "observation_points", counted)
    f = field_new(3)
    H, code, G = FMatrix(f, [[1, 1]]), butterfly_code(f, (1, 2)), FMatrix(f, [[1, 1], [0, 1]])

    def preparations(run, *args):
        calls.clear()
        run(*args)
        return len(calls)

    assert preparations(equivocation_rank, H, code, 0) == 0
    for mu in range(1, 10):
        assert preparations(equivocation_rank, H, code, mu) == 1
        assert preparations(equivocation_sweep, H, code, mu) == 1
    for mu in (1, 2):
        assert preparations(verify_secrecy_condition, H, code, mu) == 1
        assert preparations(byzantine_secrecy_check, H, G, code, mu) == 1
    assert preparations(equivocation_sweep, H, code, 0) == 0
    assert preparations(network_dr_profile, H, code) == 1


def test_each_analysis_looks_its_preparation_up_once(monkeypatch):
    """Each Delta(mu) call, sweep, secrecy and cascade verdict looks the
    code's preparations up once: the points, and with them rank C_E and the
    floor, are one entry, first asked for or not, flagged or not."""
    lookups, real = [], NetworkCode.prepared

    def counted(self, *args):
        lookups.append(args[0])
        return real(self, *args)

    monkeypatch.setattr(NetworkCode, "prepared", counted)
    f = field_new(3)
    H, code, G = FMatrix(f, [[1, 1]]), butterfly_code(f, (1, 2)), FMatrix(f, [[1, 1], [0, 1]])
    for _ in range(2):
        for run, args in [(equivocation_rank, (H, code, mu)) for mu in (1, 2, 3, 9)] + [
                (equivocation_sweep, (H, code, 9)), (verify_secrecy_condition, (H, code, 2)),
                (byzantine_secrecy_check, (H, G, code, 2)), (network_dr_profile, (H, code))]:
            lookups.clear()
            run(*args)
            assert len(lookups) == 1, run.__name__


def report_values(report):
    return report.delta, report.witnesses, report.flagged, report.d_profile


def counting_preparations(monkeypatch):
    """A Counter of the preparations made from now on: "points" per walk
    preparation, kept or not, and per kind each `prepare` that
    `NetworkCode.prepared` runs."""
    work, lookup = Counter(), NetworkCode.prepared

    class Counted(securecode.Preparation):
        def __new__(cls, *args):
            work["points"] += 1
            return super().__new__(cls, *args)

    def prepared_counted(code, kind, key, prepare):
        def counted():
            work[kind] += 1
            return prepare()
        return lookup(code, kind, key, counted)
    monkeypatch.setattr(securecode, "Preparation", Counted)
    monkeypatch.setattr(NetworkCode, "prepared", prepared_counted)
    return work


def test_each_preparation_is_made_once_per_h_g_and_edge_set(monkeypatch):
    """On one unchanged code, Delta(mu) for mu = 1..3, a sweep, the secrecy
    and cascade verdicts and the d_r profile, asked twice, prepare the walk
    over every edge once per kind while H and G stay: one for Delta and the
    verdict, one for the cascade check, and rank C_E and the floor's two
    echelons once.  Another H or G replaces the kept one, so going back to
    an earlier H prepares again; a restricted set, in any order, prepares on
    every call, and its Delta reads rank C_E and the floor every time."""
    work = counting_preparations(monkeypatch)

    def echelon_counted(f, rows, real=equivocation.echelon):
        work["echelon"] += 1
        return real(f, rows)
    monkeypatch.setattr(equivocation, "echelon", echelon_counted)
    f = field_new(3)
    H, code, G = FMatrix(f, [[1, 1]]), butterfly_code(f, (1, 2)), FMatrix(f, [[1, 1], [0, 1]])

    def analyses(H, G, restricted=None):
        return ([equivocation_rank(H, code, mu, restricted) for mu in (1, 2, 3)],
                report_values(equivocation_sweep(H, code, 3, restricted)),
                verify_secrecy_condition(H, code, 2, restricted),
                byzantine_secrecy_check(H, G, code, 2, restricted),
                network_dr_profile(H, code, restricted))

    def prepared(*args):
        work.clear()
        first, again = analyses(*args), analyses(*args)
        assert first == again
        return work["points"], work["echelon"]

    assert prepared(H, G) == (2, 2)  # "walk" for Delta and the verdict, "cascade"
    assert prepared(H, G) == (0, 0)
    assert prepared(FMatrix(f, [[1, 2]]), G) == (2, 2)  # another H
    assert prepared(H, FMatrix(f, [[1, 0], [1, 1]])) == (2, 2)  # H again, another G
    # per analyses(): 3 Delta calls, a sweep and a profile read the ranks,
    # the two verdicts do not
    assert prepared(H, G, ["SA", "BE", "ED"]) == (14, 20)
    assert prepared(H, G, ["ED", "SA", "BE"]) == (14, 20)


def test_a_restricted_analysis_keeps_nothing(monkeypatch):
    """Analyses of restricted sets between two rounds of whole-set analyses
    prepare for their own calls only: the second round, oracle included,
    makes no preparation, and every answer equals the first round's."""
    work = counting_preparations(monkeypatch)
    f = field_new(3)
    H, code, G = FMatrix(f, [[1, 1]]), butterfly_code(f, (1, 2)), FMatrix(f, [[1, 1], [0, 1]])

    def analyses(restricted=None):
        work.clear()
        return ([equivocation_rank(H, code, mu, restricted) for mu in (1, 2, 3)],
                report_values(equivocation_sweep(H, code, 3, restricted)),
                verify_secrecy_condition(H, code, 2, restricted),
                byzantine_secrecy_check(H, G, code, 2, restricted),
                [min_equivocation_bruteforce(H, code, mu, restricted) for mu in (1, 2)])

    first = analyses()
    assert work == {"points": 2, "walk": 1, "cascade": 1, "oracle": 1}
    for restricted in (["SA", "BE", "ED"], ["AB", "CF", "EF"]):
        analyses(restricted)
        assert work == {"points": 6}
    assert analyses() == first and not work


def test_a_code_keeps_at_most_three_analyses():
    """On the B(3,5) design over GF(7), 300 Delta(2) calls on restricted
    sets, 100 per H of three, each H also asked for Delta, the secrecy and
    cascade verdicts and the brute-force Delta over every edge, leave at
    most three kept analyses after every call: one per kind."""
    rng, f = random.Random(22), field_new(7)
    design = combination_secure_design(3, 5, f, 1)
    code, G = design.netcode, random_full_rank_matrix(rng, f, 3, 3)
    ids = code.network.sorted_edge_ids
    for H in (design.coset.parity_check, FMatrix(f, [[1, 2, 3]]),
              FMatrix(f, [[1, 0, 0], [0, 1, 0]])):
        subsets = set()
        while len(subsets) < 100:
            subsets.add(tuple(sorted(rng.sample(ids, rng.randint(2, len(ids) - 1)))))
        runs = [(equivocation_rank, (H, code, 2, subset)) for subset in sorted(subsets)]
        for run, args in runs + [(equivocation_rank, (H, code, 2)),
                                 (verify_secrecy_condition, (H, code, 2)),
                                 (byzantine_secrecy_check, (H, G, code, 2)),
                                 (min_equivocation_bruteforce, (H, code, 2))]:
            run(*args)
            assert len(code._prepared) <= 3, run.__name__
    assert sorted(code._prepared) == ["cascade", "oracle", "walk"]


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_analyses_follow_each_change_of_the_code(q):
    """A code analysed, then changed (one vector zeroed and one a nonzero
    multiple of another's, then new locals propagated, then `global_vectors`
    reassigned with its keys shuffled and its values in the same order),
    gives after each change every Delta, witness, flag, verdict, sweep
    report, d_r profile and brute-force Delta that the same analyses give
    on a freshly built copy."""
    rng, changed = random.Random(900 + q), 0
    for _ in range(5):
        _, code, H = random_coded_instance(rng, q=q, max_edges=8)
        f, n, ids = code.field, code.n, sorted(code.global_vectors)
        G = random_full_rank_matrix(rng, f, n, n)
        restricted = sorted(rng.sample(ids, rng.randint(1, len(ids))))

        def analyses(code):
            out = []
            for subset in (None, restricted):
                top = len(ids if subset is None else subset)
                out += [[equivocation_rank(H, code, mu, subset) for mu in range(top + 1)],
                        report_values(equivocation_sweep(H, code, top, subset)),
                        [verify_secrecy_condition(H, code, mu, subset) for mu in range(n + 1)],
                        [byzantine_secrecy_check(H, G, code, mu, subset)
                         for mu in range(n + 1)],
                        network_dr_profile(H, code, subset),
                        [min_equivocation_bruteforce(H, code, mu, subset)
                         for mu in range(top + 1)]]
            return out

        def fresh_copy():
            copy = NetworkCode(code.network)
            copy.local, copy.global_vectors = dict(code.local), dict(code.global_vectors)
            return copy

        before = analyses(code)
        assert before == analyses(fresh_copy())
        with_zero_and_parallel(rng, code)
        after = analyses(code)
        assert after == analyses(fresh_copy())
        changed += after != before
        for e in code.network.topological_order:
            code.set_local(e.id, [rng.randrange(q) for _ in code.local[e.id]])
        code.propagate()
        again = analyses(code)
        assert again == analyses(fresh_copy())
        changed += again != after
        keys = list(code.global_vectors)
        rng.shuffle(keys)
        code.global_vectors = dict(zip(keys, code.global_vectors.values()))
        moved = analyses(code)
        assert moved == analyses(fresh_copy())
        changed += moved != again
    assert changed, "no change moved any analysis"
