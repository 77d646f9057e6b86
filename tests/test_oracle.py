import random
import re
import tracemalloc
from functools import partial
from itertools import combinations, cycle, islice

import numpy as np
import pytest
from conftest import (
    observation_equivocation,
    random_coded_instance,
    reference_entropy_terms,
    reference_min_equivocation_bruteforce,
)

from wiretapnc.coset import CosetCode
from wiretapnc.equivocation import equivocation_rank, equivocation_sweep
from wiretapnc.exceptions import (
    CapExceeded,
    DimensionMismatch,
    FieldMismatch,
    InvariantViolated,
)
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import Network, NetworkCode, butterfly_code, parallel_code
from wiretapnc import oracle as oracle_module
from wiretapnc.oracle import CosetChannelOracle, min_equivocation_bruteforce
from wiretapnc.securecode import byzantine_secrecy_check, verify_secrecy_condition


def test_joint_distribution_is_normalized(gf3):
    code = butterfly_code(gf3, (1, 2))
    H = FMatrix(gf3, [[1, 1]])
    oracle = CosetChannelOracle(H, code)
    # every (secret, randomness) pair is one equally likely outcome
    assert oracle.total == oracle.q ** oracle.n == 3 ** 2
    assert oracle.q == 3 and oracle.k == 1
    # a single-edge observation is one q-ary symbol
    assert oracle.entropy_terms(("BE",))["H(Z)"] == pytest.approx(1)


def test_leaky_edge_has_zero_equivocation(gf3):
    H = FMatrix(gf3, [[1, 1]])
    oracle = CosetChannelOracle(H, butterfly_code(gf3, (1, 1)))
    assert oracle.entropy_terms(("BE",))["H(S|Z)"] == 0


def test_secure_edge_leaves_secret_independent(gf3):
    H = FMatrix(gf3, [[1, 1]])
    oracle = CosetChannelOracle(H, butterfly_code(gf3, (1, 2)))
    assert oracle.entropy_terms(("BE",))["H(S|Z)"] == 1
    # full independence: H(S, Z) = H(Z) + H(S|Z) = 2 = log_3 9, so the joint
    # law is uniform on all 9 (s, z) cells
    terms = oracle.entropy_terms(("BE",))
    assert terms["H(Z)"] == pytest.approx(1)
    assert terms["H(S|Z)"] == pytest.approx(1)


def test_empty_observation(gf3):
    H = FMatrix(gf3, [[1, 1]])
    oracle = CosetChannelOracle(H, butterfly_code(gf3))
    assert oracle.entropy_terms(())["H(S|Z)"] == 1  # prior uncertainty k = 1


def test_entropy_term_identities(gf3):
    H = FMatrix(gf3, [[1, 1]])
    code = butterfly_code(gf3, (1, 2))
    oracle = CosetChannelOracle(H, code)
    for W in [(), ("SA",), ("BE",), ("SA", "BE"), ("SA", "SC", "BE")]:
        terms = oracle.entropy_terms(W)
        r = code.coding_matrix(W).rank()
        assert terms["H(Z)"] == pytest.approx(r)
        assert terms["H(Y|Z)"] == pytest.approx(code.n - r)
        # chain rule: H(Y|Z) = H(S|Z) + H(Y|S,Z) since S is a function of Y
        assert terms["H(Y|Z)"] == pytest.approx(
            terms["H(S|Z)"] + terms["H(Y|SZ)"])


def test_oracle_matches_rank_formula_on_butterfly(gf3):
    H = FMatrix(gf3, [[1, 1]])
    for be, expected in (((1, 1), 0), ((1, 2), 1)):
        code = butterfly_code(gf3, be)
        delta, witness = min_equivocation_bruteforce(H, code, 1)
        assert delta == expected
        assert delta == equivocation_rank(H, code, 1)[0]
    code = butterfly_code(gf3, (1, 1))
    assert min_equivocation_bruteforce(H, code, 1)[1] == ("BE",)


def test_extension_field_paths_agree():
    # one oracle path serves every field: a characteristic-2 extension and
    # an odd one must both agree with the rank formula
    for p, m in ((2, 2), (3, 2)):
        f = field_new(p, m)
        code = parallel_code(3, f)
        alpha = f.primitive_element()
        H = FMatrix(f, [[1, 1, 1], [1, alpha, f.mul(alpha, alpha)]])
        for mu in (0, 1, 2, 3):
            brute, _ = min_equivocation_bruteforce(H, code, mu)
            assert brute == equivocation_rank(H, code, mu)[0]


def test_mu_zero_returns_prior(gf3):
    H = FMatrix(gf3, [[1, 1]])
    assert min_equivocation_bruteforce(H, butterfly_code(gf3), 0) == (1, ())


def test_mu_above_the_edge_count_is_refused(gf3):
    # as in equivocation_rank: no subset of mu edges exists to minimise over
    H, code = FMatrix(gf3, [[1, 1]]), butterfly_code(gf3, (1, 2))
    with pytest.raises(DimensionMismatch, match="mu=10 exceeds 9 wiretappable edges"):
        min_equivocation_bruteforce(H, code, 10)
    with pytest.raises(DimensionMismatch, match="mu=2 exceeds 1 wiretappable edges"):
        min_equivocation_bruteforce(H, code, 2, restricted=["AB"])
    with pytest.raises(DimensionMismatch):
        equivocation_rank(H, code, 2, restricted=["AB"])


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (7, 1), (2, 3), (3, 2), (2, 4)])
def test_entropy_terms_equal_reference_loop(p, m):
    rng = random.Random(9073493 + p ** m)
    for k in (1, 2):  # k = 1 and k = n - 1 with n = 3
        _, code, H = random_coded_instance(rng, q=p ** m, n=3, k=k, max_edges=4)
        oracle = CosetChannelOracle(H, code)
        for size in (0, 1, 2):
            for W in combinations(sorted(code.global_vectors), size):
                got = oracle.entropy_terms(W)
                want = reference_entropy_terms(H, code, W)
                assert got.keys() == want.keys()
                for term, value in want.items():
                    assert type(got[term]) is int, (W, term)
                    assert got[term] == pytest.approx(value, abs=1e-12), (W, term)


def test_long_observation_codes_do_not_wrap():
    # 17 GF(16) symbols need 68 bits; the first edge alone carries y_1, so
    # a code that wraps at 64 bits would lose it and report a leak-free view
    f = field_new(2, 4)
    net = Network(["S", "T"], [(f"e{i:02d}", "S", "T") for i in range(17)],
                  "S", (), 2, f)
    code = NetworkCode(net)
    for i, e in enumerate(net.edges):
        code.set_local(e.id, (0, 1) if i == 0 else (1, 0))
    code.propagate()
    H = FMatrix(f, [[1, 1]])
    W = tuple(e.id for e in net.edges)
    assert reference_entropy_terms(H, code, W)["H(S|Z)"] == pytest.approx(0)
    assert CosetChannelOracle(H, code).entropy_terms(W)["H(S|Z)"] == 0


def test_oracle_checks_every_syndrome(gf3, monkeypatch):
    # a wrong encoder row changes the channel; the oracle must refuse it
    # rather than measure the wrong channel
    init = CosetCode.__init__

    def zero_first_row(self, H):
        init(self, H)
        self.generator = ((0,) * self.n, *self.generator[1:])

    monkeypatch.setattr(CosetCode, "__init__", zero_first_row)
    H = FMatrix(gf3, [[1, 1]])
    with pytest.raises(InvariantViolated, match="outcome 1 ") as info:
        CosetChannelOracle(H, butterfly_code(gf3, (1, 2)))
    assert info.value.witness == ([1], [0])


def test_non_uniform_table_is_refused(gf3):
    # a linear view of a uniform word has a uniform count table; one wrong
    # symbol makes the BE counts 2, 4, 3, and the oracle must say so
    H = FMatrix(gf3, [[1, 1]])
    oracle = CosetChannelOracle(H, butterfly_code(gf3, (1, 2)))
    row = oracle._symbols[oracle._column["BE"]]
    row[0] = (row[0] + 1) % 3
    with pytest.raises(InvariantViolated, match=r"W=\('BE',\) .*not uniform") as info:
        oracle.entropy_terms(("BE",))
    assert info.value.witness == ("BE",)
    assert oracle.entropy_terms(("SA",))["H(S|Z)"] == 1  # other rows are untouched


def test_support_not_a_power_of_q_is_refused():
    # over GF(4), a view taking two values eight times each is uniform, but
    # on 2 cells, which no linear view of a uniform word in F_4^2 gives
    f = field_new(2, 2)
    code = parallel_code(2, f)
    oracle = CosetChannelOracle(FMatrix(f, [[1, 1]]), code)
    W = (sorted(code.global_vectors)[0],)
    oracle._symbols[oracle._column[W[0]]] = np.arange(oracle.total) % 2
    with pytest.raises(InvariantViolated, match=r"Z support of W=.* has 2 cells") as info:
        oracle.entropy_terms(W)
    assert info.value.witness == W


@pytest.mark.parametrize("H_field,H_rows,error,message", [
    ((5, 1), [[1, 1]], FieldMismatch, "H is over GF(5), but the network is over GF(3)"),
    ((3, 1), [[1]], DimensionMismatch, "H has 1 columns, expected 2"),
    ((3, 1), [[1, 1, 1]], DimensionMismatch, "H has 3 columns, expected 2"),
])
def test_oracle_refuses_the_H_the_rank_formula_refuses(gf3, H_field, H_rows, error, message):
    """Every wiretap search admits (H, code, mu) in one place, before its
    mu = 0 shortcut: the same H is refused with the same message."""
    code = butterfly_code(gf3, (1, 2))
    H = FMatrix(field_new(*H_field), H_rows)
    G = FMatrix.identity(gf3, 2)
    checks = [partial(CosetChannelOracle, H, code), partial(equivocation_sweep, H, code, 0)]
    for mu in (0, 1):
        checks += [partial(equivocation_rank, H, code, mu),
                   partial(min_equivocation_bruteforce, H, code, mu),
                   partial(verify_secrecy_condition, H, code, mu),
                   partial(byzantine_secrecy_check, H, G, code, mu)]
    for check in checks:
        with pytest.raises(error) as info:
            check()
        assert str(info.value) == message


def test_unknown_edge_is_refused(gf3):
    oracle = CosetChannelOracle(FMatrix(gf3, [[1, 1]]), butterfly_code(gf3, (1, 2)))
    with pytest.raises(DimensionMismatch, match=re.escape("unknown edge 'nope'")):
        oracle.entropy_terms(("nope",))
    with pytest.raises(DimensionMismatch, match="unknown edge"):
        oracle.entropy_terms(("BE", "nope"))


# (q, n, k, instances): every field kind, prime, characteristic 2 and odd
# extensions; with mu up to the edge count, q^(mu + k) reaches far beyond
# q^n, where the codes are counted by sorting instead of by bincount
BATCHED_CLASSES = ((2, 4, 2, 3), (3, 3, 1, 3), (4, 3, 2, 2), (7, 2, 1, 3),
                   (8, 2, 1, 2), (9, 2, 1, 3))


@pytest.mark.parametrize("budget", [oracle_module.CELL_BUDGET, 40])
def test_batched_oracle_equals_the_per_observation_loop(monkeypatch, budget):
    # a small budget splits every search into many chunks, so early stops
    # and first minimisers land inside and at the ends of chunks
    monkeypatch.setattr(oracle_module, "CELL_BUDGET", budget)
    rng = random.Random(20140)
    seen = {"dense": 0, "sorted": 0, "stopped early": 0, "restricted": 0}
    for q, n, k, instances in BATCHED_CLASSES:
        for _ in range(instances):
            _, code, H = random_coded_instance(rng, q=q, n=n, k=k, max_edges=7)
            oracle = CosetChannelOracle(H, code)
            edges = sorted(code.global_vectors)
            for restricted in (None, rng.sample(edges, rng.randint(1, len(edges)))):
                for mu in range(1, len(restricted or edges) + 1):
                    want = reference_min_equivocation_bruteforce(H, code, mu, restricted)
                    assert min_equivocation_bruteforce(H, code, mu, restricted) == want, (
                        q, n, k, mu, restricted)
                    seen["dense" if oracle._dense(mu) else "sorted"] += 1
                    last = list(combinations(sorted(restricted or edges), mu))[-1]
                    seen["stopped early"] += want[0] == 0 and want[1] != last
                    seen["restricted"] += restricted is not None
    assert min(seen.values()) > 10, seen


def test_large_codes_are_counted_by_sorting():
    # GF(7), n = 2, mu = 6: the codes have 7^7 cells for 49 outcomes
    rng = random.Random(71)
    while True:
        _, code, H = random_coded_instance(rng, q=7, n=2, k=1, max_edges=8)
        if len(code.global_vectors) >= 7:
            break
    oracle = CosetChannelOracle(H, code)
    assert not oracle._dense(6) and oracle._dense(1)
    for mu in range(1, len(code.global_vectors) + 1):
        assert min_equivocation_bruteforce(H, code, mu) == \
            reference_min_equivocation_bruteforce(H, code, mu)
        for W in combinations(sorted(code.global_vectors), mu):
            want = reference_entropy_terms(H, code, W)
            got = oracle.entropy_terms(W)
            assert all(got[t] == pytest.approx(v, abs=1e-9) for t, v in want.items()), W


def first_refused(oracle, observations):
    """The first observation whose entropy_terms raises InvariantViolated."""
    for W in observations:
        try:
            oracle.entropy_terms(W)
        except InvariantViolated:
            return W
    return None


@pytest.mark.parametrize("budget", [oracle_module.CELL_BUDGET, 20])
def test_non_uniform_table_reports_the_first_bad_observation(gf3, monkeypatch, budget):
    monkeypatch.setattr(oracle_module, "CELL_BUDGET", budget)
    H, code = FMatrix(gf3, [[1, 1]]), butterfly_code(gf3, (1, 2))
    edges = sorted(code.global_vectors)
    bad_edge = edges[4]

    tabulate = CosetChannelOracle._tabulate

    def corrupted(self, generator, columns):
        symbols = tabulate(self, generator, columns)
        row = symbols[self._column[bad_edge]]
        row[0] = (row[0] + 1) % 3
        return symbols

    monkeypatch.setattr(CosetChannelOracle, "_tabulate", corrupted)
    oracle = CosetChannelOracle(H, code)
    for mu in (1, 2):
        observations = list(combinations(edges, mu))
        first = first_refused(oracle, observations)
        assert first is not None and bad_edge in first
        with pytest.raises(InvariantViolated) as info:
            oracle._exponents(observations)
        assert info.value.witness == first
    # every single edge leaves the secret hidden, so no zero stops the
    # search before it reaches the corrupted edge
    with pytest.raises(InvariantViolated, match="not uniform") as info:
        min_equivocation_bruteforce(H, code, 1)
    assert info.value.witness == (bad_edge,)


@pytest.mark.parametrize("p,m", [(7, 1), (2, 3), (3, 2)])
def test_bincount_codes_take_the_narrowest_type(monkeypatch, p, m):
    """Whole observation lists whose rows x cells fall on each side of 2^8 and
    2^16 are counted from uint8, uint16 and uint32 codes, and each count
    equals the reference loop's; a corrupted symbol is still reported at its
    first observation at each width."""
    q = p ** m
    _, code, H = random_coded_instance(random.Random(3301 + q), q=q, n=2, k=1, max_edges=6)
    oracle = CosetChannelOracle(H, code)
    edges = sorted(code.global_vectors)
    widths, bincount = [], np.bincount

    def spy(codes, *args, **kwargs):
        widths.append(codes.dtype)
        return bincount(codes, *args, **kwargs)

    monkeypatch.setattr(np, "bincount", spy)
    lists = []
    for size in (1, 2):
        cells = q ** (size + oracle.k)
        assert oracle._dense(size)
        for limit in (1 << 8, 1 << 16):
            for rows in ((limit - 1) // cells, (limit - 1) // cells + 1):
                if rows:
                    lists.append((cells, list(islice(cycle(combinations(edges, size)), rows))))
    want = {W: reference_entropy_terms(H, code, W)
            for size in (1, 2) for W in combinations(edges, size)}

    def width(cells, observations):
        product = len(observations) * cells
        return np.dtype(np.uint8 if product < 1 << 8 else np.uint16 if product < 1 << 16
                        else np.uint32)

    for cells, observations in lists:
        h_sz, h_z = oracle._exponents(observations)
        assert widths[-1] == width(cells, observations)
        assert [(int(a - b), int(b)) for a, b in zip(h_sz, h_z)] == [
            pytest.approx((want[W]["H(S|Z)"], want[W]["H(Z)"]), abs=1e-9) for W in observations]
    assert {np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)} <= set(widths)
    row = oracle._symbols[oracle._column[edges[1]]]
    row[0] = (row[0] + 1) % q
    for cells, observations in lists:
        first = first_refused(oracle, observations)
        assert first is not None and edges[1] in first
        with pytest.raises(InvariantViolated) as info:
            oracle._exponents(observations)
        assert widths[-1] == width(cells, observations)
        assert info.value.witness == first


def test_symbols_keep_no_copy_of_the_digit_table(monkeypatch):
    """Over GF(7) a symbol is its one base-p digit, so tabulating keeps the
    digit table itself as the symbols: its allocation peak stays below twice
    that table (a copy of every row took it above).  Over GF(9) the oracle
    keeps one row per column, not the table's m = 2 digit rows.  Each
    observation's H(S | Z_W) equals the rank formula's."""
    peaks, tabulate = [], CosetChannelOracle._tabulate

    def measured(self, generator, columns):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        symbols = tabulate(self, generator, columns)
        peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return symbols

    monkeypatch.setattr(CosetChannelOracle, "_tabulate", measured)
    for q, n, max_edges in ((7, 6, 10), (9, 5, 8)):
        _, code, H = random_coded_instance(random.Random(3), q=q, n=n, k=2, max_edges=max_edges)
        tracemalloc.start()
        try:
            oracle = CosetChannelOracle(H, code)
        finally:
            tracemalloc.stop()
        p, m = H.field.p, H.field.m
        rows = len(code.global_vectors)
        # m = 1: a view of the digit table; m = 2: an array of its own
        kept = oracle._symbols.base if m == 1 else oracle._symbols
        assert kept.shape == (rows, q ** n) and kept.base is None
        if m == 1:
            assert peaks[-1] < 2 * rows * q ** n * np.min_scalar_type(2 * p - 2).itemsize
        for W in combinations(sorted(code.global_vectors), 2):
            assert oracle.entropy_terms(W)["H(S|Z)"] == pytest.approx(
                observation_equivocation(H, code.coding_matrix(W)), abs=1e-9)


def test_construction_makes_no_array_of_every_outcome_wider_than_a_symbol():
    """Over GF(7) with n = 6 and k = 2, building the oracle peaks at most
    1.8 times its symbol table (2.3 times when the secret column came from
    an int64 array of q^n and the wrap of each tabulated digit spanned every
    row at once); the secret column is t mod q^k for every outcome t, in an
    unsigned dtype."""
    _, code, H = random_coded_instance(random.Random(3), q=7, n=6, k=2, max_edges=10)
    tracemalloc.start()
    try:
        oracle = CosetChannelOracle(H, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.8 * oracle._symbols.nbytes
    assert oracle._secret.dtype.kind == "u"
    assert np.array_equal(oracle._secret, np.arange(7 ** 6) % 7 ** 2)


def test_counting_a_row_above_the_cell_budget_casts_no_whole_row_to_intp():
    """Over GF(7) with n = 8 and k = 3, one observation is 7^8 codes, more
    than CELL_BUDGET.  Counting it adds less than an intp copy of the row to
    what the oracle holds (8 bytes an outcome: bincount over the whole row
    made one), and the peak stays below the 148.6 MiB that copy gave.  Its
    H(S | Z_W) equals the rank formula's."""
    _, code, H = random_coded_instance(random.Random(1), q=7, n=8, k=3, max_edges=10)
    W = ("e00", "e01")
    tracemalloc.start()
    try:
        oracle = CosetChannelOracle(H, code)
        assert oracle.total > oracle_module.CELL_BUDGET and oracle._dense(len(W))
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        terms = oracle.entropy_terms(W)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 148.6 * 2 ** 20
    assert peak - held < 8 * oracle.total
    assert terms["H(S|Z)"] == pytest.approx(
        observation_equivocation(H, code.coding_matrix(W)), abs=1e-9)


def test_a_row_above_the_cell_budget_is_counted_in_slices(monkeypatch):
    """With CELL_BUDGET = 10, a row over GF(2) with n = 4 is 16 codes: each
    single edge is counted by bincount in slices of at most 10 codes, and its
    entropy terms equal the reference loop's."""
    monkeypatch.setattr(oracle_module, "CELL_BUDGET", 10)
    _, code, H = random_coded_instance(random.Random(5), q=2, n=4, k=2, max_edges=6)
    oracle = CosetChannelOracle(H, code)
    assert oracle._dense(1) and oracle._chunk_rows(1) == 1
    sizes, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount",
                        lambda codes, **kwargs: sizes.append(codes.size) or bincount(codes, **kwargs))
    edges = sorted(code.global_vectors)
    for e in edges:
        assert oracle.entropy_terms((e,)) == pytest.approx(
            reference_entropy_terms(H, code, (e,)), abs=1e-9)
    assert sizes == [10, 6] * len(edges)


def test_unequal_counts_on_a_power_of_q_cells_are_refused():
    # over GF(2) with n = 3, a view that is 1 on outcomes 0 and 1 only has
    # Z counts 6, 2 and (S, Z) counts 3, 3, 1, 1: both tables sit on a power
    # of q cells, and only the counts' inequality shows that no linear view
    # of a uniform word gives them
    f = field_new(2)
    code = parallel_code(3, f)
    oracle = CosetChannelOracle(FMatrix(f, [[1, 1, 1]]), code)
    W = (sorted(code.global_vectors)[0],)
    oracle._symbols[oracle._column[W[0]]] = np.arange(oracle.total) < 2
    with pytest.raises(InvariantViolated, match=r"\(S, Z\) counts of W=.* not uniform") as info:
        oracle.entropy_terms(W)
    assert info.value.witness == W


def test_one_table_per_h_while_the_code_is_unchanged(gf3, monkeypatch):
    """min_equivocation_bruteforce tabulates an unchanged (H, code) once, for
    every mu and every restricted set, asked twice; a value-equal copy of H
    does not tabulate, another H replaces the table, so going back to the
    first tabulates again, a change of one global vector tabulates again,
    and a table ENUM_CAP refuses is not kept and leaves the kept one.  Every
    answer equals the reference loop's."""
    tables = []
    tabulate = CosetChannelOracle._tabulate

    def counted(self, generator, columns):
        tables.append(self)
        return tabulate(self, generator, columns)

    monkeypatch.setattr(CosetChannelOracle, "_tabulate", counted)
    H, code = FMatrix(gf3, [[1, 1]]), butterfly_code(gf3, (1, 2))
    edges = sorted(code.global_vectors)
    subsets = (None, ["SA", "BE", "ED"], ["ED", "SA", "BE"], edges[3:], ["CF"])

    def deltas(H):
        got = [min_equivocation_bruteforce(H, code, mu, subset)
               for subset in subsets for mu in range(len(subset or edges) + 1)]
        assert got == [reference_min_equivocation_bruteforce(H, code, mu, subset)
                       for subset in subsets for mu in range(len(subset or edges) + 1)]
        return len(tables)

    assert deltas(H) == 1
    assert deltas(H) == 1
    assert deltas(FMatrix(gf3, [[1, 1]])) == 1  # the same rows
    assert deltas(FMatrix(gf3, [[1, 2]])) == 2  # another H replaces the table
    assert deltas(H) == 3  # so going back to H tabulates again
    code.global_vectors["BE"] = (1, 1)  # the textbook code: BE now leaks
    assert deltas(H) == 4
    assert min_equivocation_bruteforce(H, code, 1) == (0, ("BE",))
    assert deltas(H) == 4
    cap, other = oracle_module.ENUM_CAP, FMatrix(gf3, [[1, 0]])
    monkeypatch.setattr(oracle_module, "ENUM_CAP", 8)
    for _ in range(2):
        with pytest.raises(CapExceeded):
            min_equivocation_bruteforce(other, code, 1)
    monkeypatch.setattr(oracle_module, "ENUM_CAP", cap)
    assert deltas(H) == 4  # the refused table left H's in place
    assert deltas(other) == 5
    assert deltas(other) == 5


def test_reordered_vectors_are_read_by_edge_id(gf3):
    """`global_vectors` of the textbook butterfly reassigned with SA and BE
    swapped in key order, the values in the same order, gives SA the leaking
    vector (1, 1) and BE (1, 0): the kept oracle and walk see the change."""
    H, code = FMatrix(gf3, [[1, 1]]), butterfly_code(gf3, (1, 1))
    assert min_equivocation_bruteforce(H, code, 1, ["SA"]) == (1, ("SA",))
    assert equivocation_rank(H, code, 1) == (0, ("BE",), False)
    keys = ["BE" if e == "SA" else "SA" if e == "BE" else e for e in code.global_vectors]
    code.global_vectors = dict(zip(keys, code.global_vectors.values()))
    assert min_equivocation_bruteforce(H, code, 1, ["SA"]) == (0, ("SA",))
    assert equivocation_rank(H, code, 1) == (0, ("ED",), False)


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (5, 2), (7, 1)])
def test_digit_matrix_of_a_product_is_the_product_of_digit_matrices(p, m):
    """D(A B) = D(A) D(B) mod p on random matrices over GF(p^m): the oracle's
    channel is the digit matrix of the field product c = G_i . g_e."""
    f, rng = field_new(p, m), random.Random(10 * p + m)
    for _ in range(10):
        r, s, c = (rng.randint(1, 4) for _ in range(3))
        A = [[rng.randrange(f.order) for _ in range(s)] for _ in range(r)]
        B = [[rng.randrange(f.order) for _ in range(c)] for _ in range(s)]
        AB = [[f.dot(row, col) for col in zip(*B)] for row in A]
        product = oracle_module._digit_matrix(f, A) @ oracle_module._digit_matrix(f, B) % p
        assert np.array_equal(oracle_module._digit_matrix(f, AB), product)
