import random
from collections import Counter
from itertools import combinations

import pytest

from conftest import (
    complete_to_invertible,
    fan_instance,
    inverse_and_select_equivocation,
    kernel,
    matmul,
    observation_equivocation,
    prime_power_parts,
    random_coded_instance,
    random_full_rank_matrix,
    reference_equivocation_rank,
    reference_first_violation,
    row_space,
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
)
from wiretapnc.fmatrix import FMatrix, combination, eliminate
from wiretapnc.gf import field_new
from wiretapnc.netgraph import NetworkCode, butterfly_code, combination_network, parallel_network
from wiretapnc.oracle import min_equivocation_bruteforce
from wiretapnc.securecode import (
    byzantine_secrecy_check,
    combination_secure_design,
    full_rank_observations,
    observation_points,
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
            lines = [frozenset(row_space(code.coding_matrix([e])) for e in W)
                     for W, *_ in full_rank_observations(
                         f, *observation_points(code, edges, H), range(n + 1))]
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
    stops early (its walk is left unfinished) and prunes by the bound (a
    finished walk still takes fewer row steps, remainders reduced by one
    basis row, than the unpruned walk)."""
    walk, steps, finished, seen = (securecode.full_rank_observations,
                                   count_row_steps(monkeypatch), [], Counter())

    def watched(*args, **kwargs):
        yield from walk(*args, **kwargs)
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
            steps[0], finished[:] = 0, []
            got = equivocation_rank(H, code, mu)
            searched = steps[0]
            assert got == reference_equivocation_rank(H, code, mu), (q, mu)
            steps[0] = 0
            list(walk(f, *observation_points(code, edges, H), (mu,)))
            if not finished:
                seen["stopped"] += 1
            elif searched < steps[0]:
                seen["pruned"] += 1
            assert verify_secrecy_condition(H, code, mu) == \
                reference_first_violation(H, code, range(1, mu + 1))
            assert byzantine_secrecy_check(H, G, code, mu) == \
                reference_first_violation(H, code, (mu,), None, G)
    assert seen["stopped"] and seen["pruned"], seen


def test_fan_delta_row_steps_pinned(monkeypatch):
    """The walk's work on fan Delta(5) over GF(31) (M=30, n=8, k=3,
    random.Random(1)), in row steps: remainders reduced by one basis row, the
    k rows of H once per point at the root, then one new row of each basis
    per later point per level.  A deterministic guard on the walk's cost."""
    steps = count_row_steps(monkeypatch)
    code, H = fan_instance(random.Random(1), field_new(31), 30, 8, 3)
    assert equivocation_rank(H, code, 5) == (2, ("Sv0", "Sv1", "Sv10", "Sv13", "Sv20"), False)
    assert steps[0] == 63201


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
        rank_HE = len(base) + FMatrix(f, [h for *_, h in points], n).rank()
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


def test_each_preparation_is_made_once_per_h_g_and_edge_set(monkeypatch):
    """On one unchanged code, Delta(mu) for mu = 1..3, a sweep, the secrecy
    and cascade verdicts and the d_r profile, asked twice, prepare the walk
    once per distinct (H, G, admitted edge set): one `prepare` passed to
    `NetworkCode.prepared` for the points, and rank C_E and the floor's two
    echelons once per (H, edge set) that Delta is asked on.  Another H,
    another G or another restricted set prepares again; the same set named
    in another order does not."""
    work = Counter()
    lookup = NetworkCode.prepared

    def prepared_counted(code, key, edges, prepare):
        def counted(vectors):
            work["prepare"] += 1
            return prepare(vectors)
        return lookup(code, key, edges, counted)

    def echelon_counted(f, rows, real=equivocation.echelon):
        work["echelon"] += 1
        return real(f, rows)
    monkeypatch.setattr(NetworkCode, "prepared", prepared_counted)
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
        return work["prepare"], work["echelon"]

    # (H, None, E) for Delta and the verdict and (H, G, E) for the cascade check
    assert prepared(H, G) == (2, 2)
    assert prepared(H, G) == (0, 0)
    assert prepared(FMatrix(f, [[1, 2]]), G) == (2, 2)  # another H
    assert prepared(H, FMatrix(f, [[1, 0], [1, 1]])) == (1, 0)  # another G
    assert prepared(H, G, ["SA", "BE", "ED"]) == (2, 2)  # another edge set
    assert prepared(H, G, ["ED", "SA", "BE"]) == (0, 0)  # the same set


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_analyses_follow_each_change_of_the_code(q):
    """A code analysed, then changed (one vector zeroed and one a nonzero
    multiple of another's, then new locals propagated), gives after each
    change every Delta, witness, flag, verdict, sweep report, d_r profile
    and brute-force Delta that the same analyses give on a freshly built
    copy."""
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
    assert changed, "no change moved any analysis"
