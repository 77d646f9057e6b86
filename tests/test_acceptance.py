"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single pass/fail line
to the terminal (bypassing capture), with its runtime.  All equivocation
values are exact integers in q-ary symbols, from the rank formula and from
the oracle's uniform count tables alike, so comparisons use zero tolerance.
"""

import random
import time
from itertools import product
from math import comb

import pytest

from conftest import (
    kernel,
    matmul,
    mds_parity_check,
    prime_power_parts,
    random_coded_instance,
    random_multicast_network,
    smallest_prime_power_at_least,
)
from wiretapnc.coset import gabidulin_parity_check, universal_secrecy_check
from wiretapnc.equivocation import equivocation_rank, equivocation_wtc2, wei_consistency_check
from wiretapnc.exceptions import FieldTooSmall
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import Network, butterfly_code, butterfly_network, parallel_code
from wiretapnc.oracle import min_equivocation_bruteforce
from wiretapnc.securecode import (
    alphabet_bound_general,
    alphabet_bound_minimal,
    alphabet_bound_two_sources,
    byzantine_secrecy_check,
    combination_secure_design,
    secure_lif,
    verify_secrecy_condition,
)


@pytest.fixture
def announce(capsys):
    def _p(line):
        with capsys.disabled():
            print(line)
    return _p


def checked(announce, num, label, limit_s):
    """Context manager printing one pass/fail line for a criterion."""

    class _Ctx:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        def __exit__(self, exc_type, exc, tb):
            elapsed = time.monotonic() - self.t0
            if exc_type is None and elapsed < limit_s:
                announce(f"criterion {num}: PASS  {label} ({elapsed:.2f}s)")
                return False
            reason = "runtime limit" if exc_type is None else exc_type.__name__
            announce(f"criterion {num}: FAIL  {label} ({elapsed:.2f}s, {reason})")
            if exc_type is None:
                raise AssertionError(
                    f"criterion {num} exceeded {limit_s}s: {elapsed:.2f}s"
                )
            return False

    return _Ctx()


def test_criterion_1_butterfly_single_edge_equivocation(announce):
    with checked(announce, 1, "butterfly single-edge equivocation, "
                 "rank formula and oracle agree", 1.0):
        f = field_new(3)
        H = FMatrix(f, [[1, 1]])
        insecure = butterfly_code(f, (1, 1))
        delta, witness, _ = equivocation_rank(H, insecure, 1)
        assert (delta, witness) == (0, ("BE",))
        assert min_equivocation_bruteforce(H, insecure, 1) == (0, ("BE",))
        secure = butterfly_code(f, (1, 2))
        for eid in sorted(secure.global_vectors):
            assert equivocation_rank(H, secure, 1, [eid])[0] == 1
            assert min_equivocation_bruteforce(H, secure, 1, [eid])[0] == 1


def test_criterion_2_combination_network_design(announce):
    with checked(announce, 2, "4-relay combination network design is "
                 "bit-exact, decodable, and oracle-confirmed", 5.0):
        f = field_new(7)
        design = combination_secure_design(3, 4, f, 2)
        H = design.coset.parity_check
        code = design.netcode
        assert [list(r) for r in H.data] == [[1, 1, 1], [3, 2, 6]]
        assert [list(code.global_vectors[f"Sm{i}"]) for i in range(4)] == [
            [2, 4, 1], [6, 1, 6], [4, 2, 1], [5, 4, 6]]
        ok, _ = verify_secrecy_condition(H, code, 1)
        assert ok
        flows = code.network.edge_disjoint_flows()
        assert len(flows) == 4
        y = [1, 5, 2]
        pay = code.payloads(y)
        for r, flow in flows.items():
            assert code.receiver_decode(flow, pay) == y
        assert min_equivocation_bruteforce(H, code, 1)[0] == 2
        assert equivocation_rank(H, code, 1)[0] == 2


def test_criterion_3_rank_formula_equals_entropy_oracle(announce):
    with checked(announce, 3, "rank formula equals brute-force entropy "
                 "oracle on 200 random instances, every mu", 600.0):
        rng = random.Random(42)
        for i in range(200):
            net, code, H = random_coded_instance(rng)
            for mu in range(1, len(net.edges) + 1):
                a = equivocation_rank(H, code, mu)[0]
                b = min_equivocation_bruteforce(H, code, mu)[0]
                assert a == b, (
                    f"instance {i}, mu={mu}: rank formula {a} != oracle {b}"
                )


def test_criterion_4_reduction_laws(announce):
    with checked(announce, 4, "parallel-edge, layered-relay, restricted-cut "
                 "equivocation laws and weight-hierarchy consistency", 60.0):
        # (a) on n parallel edges the network formula reduces to the
        # column-rank minimum of H
        rng = random.Random(4)
        cases = 0
        while cases < 50:
            p, m = rng.choice(((2, 1), (3, 1), (2, 2), (5, 1), (7, 1)))
            f = field_new(p, m)
            n = rng.randint(2, 4)
            k = rng.randint(1, n)
            H = FMatrix(f, [[rng.randrange(f.order) for _ in range(n)]
                            for _ in range(k)])
            if H.rank() != k:
                continue
            code = parallel_code(n, f)
            for mu in range(n + 1):
                assert equivocation_rank(H, code, mu)[0] == \
                    equivocation_wtc2(H, mu)
            cases += 1

        # (b) RS-based layered designs: Delta(mu) = k - (mu - lambda)
        f7, f11 = field_new(7), field_new(11)
        for n, M, k, f in [(3, 4, 2, f7), (3, 4, 1, f7), (2, 3, 1, f7),
                           (3, 4, 3, f11), (2, 4, 2, f7)]:
            design = combination_secure_design(n, M, f, k)
            lam = n - k
            for mu in range(lam, n + 1):
                delta = equivocation_rank(
                    design.coset.parity_check, design.netcode, mu)[0]
                assert delta == k - (mu - lam)

        # (c) wiretapper restricted to a decodable cut: exactly the
        # column-rank law in cut coordinates
        f3 = field_new(3)
        code = butterfly_code(f3, (1, 2))
        cut = ["AD", "ED"]
        B = code.coding_matrix(cut)
        H = FMatrix(f3, [[1, 1]])
        H_cut = matmul(H, B.invert())
        for mu in (1, 2):
            assert equivocation_rank(H, code, mu, restricted=cut)[0] == \
                equivocation_wtc2(H_cut, mu)

        # (d) weight-hierarchy inequalities for every computed (mu, delta)
        rng = random.Random(44)
        for _ in range(20):
            q = rng.choice((2, 3, 5, 7))
            f = field_new(q)
            n = rng.randint(2, 5)
            k = rng.randint(1, n - 1)
            H = FMatrix(f, [[rng.randrange(q) for _ in range(n)]
                            for _ in range(k)])
            if H.rank() != k:
                continue
            G = kernel(H)
            if G.rows == 0:
                continue
            words = f.order ** G.rows - 1
            if max(comb(words, r) for r in range(1, G.rows + 1)) > 10 ** 6:
                continue
            for mu in range(n):
                delta = equivocation_wtc2(H, mu)
                assert wei_consistency_check(G, mu, delta)


def test_criterion_5_secure_lif_on_random_multicast(announce):
    with checked(announce, 5, "security-constrained code construction "
                 "succeeds on 100 random multicast networks at the "
                 "sufficient alphabet size", 600.0):
        rng = random.Random(5)
        built = 0
        while built < 100:
            n = rng.randint(2, 3)
            mu = rng.randint(1, min(2, n - 1))
            t = rng.randint(1, 3)
            net0 = random_multicast_network(rng, n, t, field_new(2))
            bound = alphabet_bound_general(len(net0.edges), mu, t)
            q = smallest_prime_power_at_least(bound)
            f = field_new(*prime_power_parts(q))
            net = Network(net0.nodes,
                          [(e.id, e.tail, e.head) for e in net0.edges],
                          net0.source, net0.receivers, n, f)
            k = n - mu
            H = mds_parity_check(f, k, n)
            design = secure_lif(net, n, mu, H, f)
            ok, _ = verify_secrecy_condition(H, design.netcode, mu)
            assert ok
            y = [rng.randrange(q) for _ in range(n)]
            pay = design.netcode.payloads(y)
            for r, flow in net.edge_disjoint_flows().items():
                assert design.netcode.receiver_decode(flow, pay) == y
            assert min_equivocation_bruteforce(H, design.netcode, mu)[0] == k
            built += 1
        # negative control: the butterfly needs more than two symbols
        with pytest.raises(FieldTooSmall):
            secure_lif(butterfly_network(field_new(2)), 2, 1,
                       FMatrix(field_new(2), [[1, 1]]))


def test_criterion_6_rank_metric_universality(announce):
    with checked(announce, 6, "rank-metric parity checks keep every "
                 "base-field observation invertible; prime-field "
                 "counterexample discriminates", 60.0):
        f2 = field_new(2)
        for m in (2, 3):
            for n in range(2, m + 1):
                for k in range(1, n):
                    H = gabidulin_parity_check(n, k, f2, m)
                    for bits in product((0, 1), repeat=k * n):
                        B = FMatrix(
                            f2, [list(bits[i * n:(i + 1) * n])
                                 for i in range(k)], n)
                        if B.rank() != k:
                            continue
                        assert universal_secrecy_check(H, B)
        assert not universal_secrecy_check(
            FMatrix(f2, [[1, 1]]), FMatrix(f2, [[1, 1]]))


def test_criterion_7_byzantine_identity_reduction(announce):
    with checked(announce, 7, "cascade secrecy check with identity outer "
                 "code agrees with the plain condition on the corpus", 120.0):
        rng = random.Random(7)
        compared = 0
        while compared < 120:
            net, code, H = random_coded_instance(rng)
            n = code.n
            full_rank = code.coding_matrix(
                sorted(code.global_vectors)).rank()
            G = FMatrix.identity(net.field, n)
            for mu in range(1, min(n, full_rank) + 1):
                plain_ok, _ = verify_secrecy_condition(H, code, mu)
                byz_ok, _ = byzantine_secrecy_check(H, G, code, mu)
                assert plain_ok == byz_ok
                compared += 1
        # and on the named example codes
        f3 = field_new(3)
        H = FMatrix(f3, [[1, 1]])
        G = FMatrix.identity(f3, 2)
        for be, expect in (((1, 1), False), ((1, 2), True)):
            code = butterfly_code(f3, be)
            assert byzantine_secrecy_check(H, G, code, 1)[0] == expect
            assert verify_secrecy_condition(H, code, 1)[0] == expect


def test_criterion_8_alphabet_bound_arithmetic(announce):
    with checked(announce, 8, "alphabet-size bound arithmetic", 1.0):
        assert alphabet_bound_general(9, 1, 2) == 3
        assert alphabet_bound_two_sources(2) == 3
        assert alphabet_bound_two_sources(7) == 5
        assert alphabet_bound_minimal(1, 1, 1) == 2
