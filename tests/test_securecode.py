import os
import random
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest
from conftest import random_full_rank_matrix

import wiretapnc
from wiretapnc import securecode
from wiretapnc.coset import CosetCode
from wiretapnc.equivocation import equivocation_rank, equivocation_sweep
from wiretapnc.exceptions import (
    BadBudgets,
    BadParameters,
    BudgetExceedsCut,
    DimensionMismatch,
    FieldMismatch,
    FieldTooSmall,
    InvariantViolated,
    SingularMatrix,
)
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import (
    Network,
    butterfly_code,
    butterfly_network,
    combination_network,
    parallel_network,
)
from wiretapnc.oracle import min_equivocation_bruteforce
from wiretapnc.securecode import (
    SecureDesign,
    admit_wiretap,
    alphabet_bound_general,
    alphabet_bound_minimal,
    alphabet_bound_two_sources,
    byzantine_secrecy_check,
    cai_yeung_to_coset,
    combination_secure_design,
    secure_lif,
    verify_secrecy_condition,
    wiretappable_edges,
)
from wiretapnc.serialize import design_from_json, design_to_json


def test_wiretappable_edges(gf3):
    code = butterfly_code(gf3)
    assert wiretappable_edges(code)[:3] == ("AB", "AD", "BE")
    assert wiretappable_edges(code, ["SC", "SA"]) == ("SA", "SC")
    with pytest.raises(DimensionMismatch):
        wiretappable_edges(code, ["nope"])


def test_unrestricted_wiretappable_edges_are_the_networks_sorted_ids(gf3):
    """With no restricted set, every admission gets the network's own sorted
    ids, one tuple that no caller can edit, sorted on first use, not when
    the Network is built; a restricted set gets a tuple too."""
    code = butterfly_code(gf3)
    assert "sorted_edge_ids" not in vars(code.network)
    want = tuple(sorted(e.id for e in code.network.edges))
    first = wiretappable_edges(code)
    assert first == want and first is code.network.sorted_edge_ids
    for restricted in (None, [], ()):
        assert wiretappable_edges(code, restricted) is first
    assert admit_wiretap(FMatrix(gf3, [[1, 1]]), code, 1) is first
    assert type(wiretappable_edges(code, ["BE", "AB"])) is tuple
    with pytest.raises(AttributeError):
        first.append("nope")
    assert code.network.sorted_edge_ids == want


def test_verify_butterfly_variants(gf3):
    H = FMatrix(gf3, [[1, 1]])
    ok, witness = verify_secrecy_condition(H, butterfly_code(gf3, (1, 1)), 1)
    assert not ok and witness == ("BE",)
    ok, witness = verify_secrecy_condition(H, butterfly_code(gf3, (1, 2)), 1)
    assert ok and witness is None


def test_verify_respects_restricted_set(gf3):
    H = FMatrix(gf3, [[1, 1]])
    code = butterfly_code(gf3, (1, 1))  # leaks only on the BE/ED/EF line
    ok, _ = verify_secrecy_condition(H, code, 1, restricted=["SA", "SC"])
    assert ok


def test_empty_restricted_set_is_every_edge(gf3):
    """An empty restricted set leaves every edge open, in the library as in a
    design file and `--restricted ""`: the insecure butterfly leaks on BE.
    A design's mu and restricted edges survive a save and a load."""
    H, code = FMatrix(gf3, [[1, 1]]), butterfly_code(gf3, (1, 1))
    for analysis in (verify_secrecy_condition, equivocation_rank, min_equivocation_bruteforce):
        assert analysis(H, code, 1, []) == analysis(H, code, 1, None), analysis
    assert verify_secrecy_condition(H, code, 1, []) == (False, ("BE",))
    for mu, restricted in ((1, None), (0, ()), (2, ("SA", "SC"))):
        design = SecureDesign(CosetCode(H), code, mu, restricted)
        loaded = design_from_json(design_to_json(design))
        assert (loaded.mu, loaded.restricted_edges) == (mu, restricted or None)


def test_verify_budget_guard(gf3):
    # both secrecy checks refuse mu > n, with one message
    H, G = FMatrix(gf3, [[1, 1]]), FMatrix.identity(gf3, 2)
    code = butterfly_code(gf3)
    for call in (lambda: verify_secrecy_condition(H, code, 3),
                 lambda: byzantine_secrecy_check(H, G, code, 3)):
        with pytest.raises(BudgetExceedsCut, match="^mu=3 exceeds multicast dimension n=2$"):
            call()


def test_negative_budget_refused(gf3):
    H, G = FMatrix(gf3, [[1, 1]]), FMatrix.identity(gf3, 2)
    code = butterfly_code(gf3, (1, 1))
    calls = (
        lambda: equivocation_rank(H, code, -1),
        lambda: equivocation_sweep(H, code, -1),
        lambda: verify_secrecy_condition(H, code, -3),
        lambda: byzantine_secrecy_check(H, G, code, -1),
        lambda: secure_lif(butterfly_network(gf3), 2, -1, H),
        lambda: min_equivocation_bruteforce(H, code, -1),
    )
    for call in calls:
        with pytest.raises(BadBudgets, match=r"mu(_max)?=-\d"):
            call()


def test_secure_lif_butterfly(gf3):
    net = butterfly_network(gf3)
    H = FMatrix(gf3, [[1, 1]])
    design = secure_lif(net, 2, 1, H)
    assert sorted(design.certificate) == ["checks", "locals"]
    ok, _ = verify_secrecy_condition(H, design.netcode, 1)
    assert ok
    # the greedy choice at node B must avoid the x1 + x2 direction
    assert design.netcode.local["BE"] == (1, 2)
    # all receivers still decode
    flows = net.edge_disjoint_flows()
    y = [2, 1]
    pay = design.netcode.payloads(y)
    for r, flow in flows.items():
        assert design.netcode.receiver_decode(flow, pay) == y


# an edge a -> b out of a node other than the source with no in-edge, beside
# S -> T (n = 1); and beside two S -> T edges, with b -> T off T's flow (n = 2):
# (edges, n, H rows, mu, {edge: (local, global)})
INPUTLESS = {
    "n1-mu0": ([("ST", "S", "T"), ("ab", "a", "b")], 1, [[1]], 0,
               {"ST": ((1,), (1,)), "ab": ((), (0,))}),
    "n1-k0": ([("ST", "S", "T"), ("ab", "a", "b")], 1, [], 1,
              {"ST": ((1,), (1,)), "ab": ((), (0,))}),
    "n2-mu1": ([("ab", "a", "b"), ("ST0", "S", "T"), ("ST1", "S", "T"), ("bT", "b", "T")],
               2, [[1, 1]], 1, {"ST0": ((1, 0), (1, 0)), "ST1": ((0, 1), (0, 1)),
                                "ab": ((), (0, 0)), "bT": ((0,), (0, 0))}),
}


@pytest.mark.parametrize("case", INPUTLESS)
def test_secure_lif_codes_an_edge_without_inputs(gf3, case):
    """An edge with no input gets the empty local vector and the zero global
    vector, as every edge off the flows whose inputs are all zero does."""
    edges, n, rows, mu, want = INPUTLESS[case]
    net = Network(["S", "T", "a", "b"], edges, "S", ["T"], n, gf3)
    code = secure_lif(net, n, mu, FMatrix(gf3, rows, n)).netcode
    assert {eid: (code.local[eid], code.global_vectors[eid]) for eid in want} == want


def test_secure_lif_refuses_k_plus_mu_above_n(gf3, monkeypatch):
    # rank [H; C_W] = k + |W| <= n fails for every field once k + mu > n;
    # a cap of 0 checks shows the refusal comes before any candidate
    H = FMatrix(gf3, [[1, 1]])
    monkeypatch.setattr(securecode, "SUBSET_CHECK_CAP", 0)
    with pytest.raises(BudgetExceedsCut, match=r"k \+ mu = 3 exceeds n=2"):
        secure_lif(butterfly_network(gf3), 2, 2, H)
    # analysis still accepts such a design: it is insecure, not malformed
    code = butterfly_code(gf3, (1, 2))
    assert verify_secrecy_condition(H, code, 2) == (False, ("AB", "BE"))
    assert equivocation_rank(H, code, 2)[0] == min_equivocation_bruteforce(H, code, 2)[0] == 0


def test_secure_lif_refuses_rank_deficient_parity_check(gf3, monkeypatch):
    monkeypatch.setattr(securecode, "SUBSET_CHECK_CAP", 0)
    with pytest.raises(SingularMatrix, match="full row rank"):
        secure_lif(butterfly_network(gf3), 2, 1, FMatrix(gf3, [[0, 0]]))


def test_secure_lif_field_too_small(gf2):
    net = butterfly_network(gf2)
    H = FMatrix(gf2, [[1, 1]])
    with pytest.raises(FieldTooSmall) as exc:
        secure_lif(net, 2, 1, H)
    assert exc.value.bound >= 3


def test_secure_lif_tries_one_coefficient_vector_per_direction(monkeypatch):
    """B(4,8) with mu = 3 over GF(32) needs 36,486 checks when every scalar
    multiple of a coefficient vector is tried; one per direction fits 10,000."""
    f = field_new(2, 5)
    monkeypatch.setattr(securecode, "SUBSET_CHECK_CAP", 10_000)
    design = secure_lif(combination_network(4, 8, f), 4, 3, FMatrix(f, [[1] * 4]))
    assert design.certificate["checks"] <= 10_000


def test_secure_lif_insufficient_cut(gf3):
    # an n above the network's min cut is refused as an n other than the network's
    net = parallel_network(2, gf3)
    H = FMatrix(gf3, [[1, 1, 1]])
    with pytest.raises(DimensionMismatch, match=r"n=3, but the network has n=2"):
        secure_lif(net, 3, 1, H)


def test_secure_lif_refuses_n_other_than_the_networks(gf3):
    # a code of dimension 1 on the n = 2 butterfly could not be loaded back
    with pytest.raises(DimensionMismatch, match=r"n=1, but the network has n=2"):
        secure_lif(butterfly_network(gf3), 1, 0, FMatrix(gf3, [[1]]))


def test_secure_lif_refuses_a_field_other_than_the_networks(gf3):
    with pytest.raises(FieldMismatch, match=r"f is GF\(5\), but the network is over GF\(3\)"):
        secure_lif(butterfly_network(gf3), 2, 1, FMatrix(gf3, [[1, 1]]), field_new(5))


def test_secure_lif_refuses_an_H_over_another_field(gf3, monkeypatch):
    # with mu = 0 no security test reads H, so the search would return a
    # design; a cap of 0 checks shows the refusal comes before any candidate
    monkeypatch.setattr(securecode, "SUBSET_CHECK_CAP", 0)
    with pytest.raises(FieldMismatch, match=r"H is over GF\(5\), but the network is over GF\(3\)"):
        secure_lif(butterfly_network(gf3), 2, 0, FMatrix(field_new(5), [[1, 1]]))


def test_alphabet_bounds():
    assert alphabet_bound_general(9, 1, 2) == 3
    assert alphabet_bound_two_sources(2) == 3
    assert alphabet_bound_two_sources(7) == 5
    assert alphabet_bound_minimal(1, 1, 1) == 2
    assert alphabet_bound_general(12, 2, 3) == 14
    # the two-source bound is the largest s with s^2 - s + 2 <= 2t, plus one,
    # also where a search one s at a time would take 1.4e9 steps
    for t in [*range(1, 10**5 + 1), 10**12, 10**18]:
        s = alphabet_bound_two_sources(t) - 1
        assert s * s - s + 2 <= 2 * t < (s + 1) * s + 2
    with pytest.raises(DimensionMismatch):
        alphabet_bound_general(0, 1, 1)
    with pytest.raises(DimensionMismatch):
        alphabet_bound_two_sources(0)


@pytest.mark.parametrize("bound, args, message", [
    (alphabet_bound_general, (0, 1, 1), "the edge count |E|=0 must be at least 1"),
    (alphabet_bound_general, (9, -1, 2), "mu=-1 must be at least 1"),
    (alphabet_bound_minimal, (0, 1, 1), "k=0 must be at least 1"),
    (alphabet_bound_minimal, (1, 1, 0), "the receiver count t=0 must be at least 1"),
    (alphabet_bound_two_sources, (0,), "the receiver count t=0 must be at least 1"),
])
def test_alphabet_bound_refusals_name_the_count_and_its_value(bound, args, message):
    with pytest.raises(DimensionMismatch) as info:
        bound(*args)
    assert str(info.value) == message


def test_combination_design_exact_values(gf7):
    design = combination_secure_design(3, 4, gf7, 2)
    H = design.coset.parity_check
    assert [list(r) for r in H.data] == [[1, 1, 1], [3, 2, 6]]
    vecs = [design.netcode.global_vectors[f"Sm{i}"] for i in range(4)]
    assert vecs == [(2, 4, 1), (6, 1, 6), (4, 2, 1), (5, 4, 6)]
    ok, _ = verify_secrecy_condition(H, design.netcode, 1)
    assert ok


def test_combination_design_field_too_small(gf3):
    with pytest.raises(FieldTooSmall):
        combination_secure_design(3, 4, gf3, 2)


def test_combination_design_refuses_k_outside_0_to_n(gf7):
    # mu = n - k would be negative or above n, so no verification could run
    for k in (3, -1):
        with pytest.raises(BadParameters, match=rf"k={k} must lie between 0 and n=2"):
            combination_secure_design(2, 3, gf7, k)


def test_cai_yeung_equivalence_exhaustive(gf3):
    """Multiplying [S; R] by any invertible T equals coset encoding with the
    first k rows of T^-1 as parity check: H (T [S; R]) = S always."""
    k = 1
    checked = 0
    for entries in product(range(3), repeat=4):
        T = FMatrix(gf3, [list(entries[:2]), list(entries[2:])])
        if T.rank() != 2:
            continue
        coset = cai_yeung_to_coset(T, k)
        for s in range(3):
            for r in range(3):
                word = T.mul_vec([s, r])
                assert coset.decode(word) == [s]
        checked += 1
    assert checked == 48  # |GL(2, 3)|


def test_cai_yeung_refuses_k_outside_0_to_n(gf3):
    T = FMatrix.identity(gf3, 3)
    for k in (4, -1):
        with pytest.raises(BadParameters, match=rf"k={k} must lie between 0 and n=3"):
            cai_yeung_to_coset(T, k)
    assert cai_yeung_to_coset(T, 3).k == 3 and cai_yeung_to_coset(T, 0).k == 0


def test_cai_yeung_refuses_a_non_square_T(gf3):
    with pytest.raises(SingularMatrix, match="^T must be square$"):
        cai_yeung_to_coset(FMatrix(gf3, [[1, 0, 0], [0, 1, 0]]), 1)


@pytest.mark.parametrize("build, message", [
    (lambda f: secure_lif(butterfly_network(f), 2, 1, FMatrix(f, [[1, 1]])),
     "secure_lif output failed verification, witness ('SA',)"),
    (lambda f: combination_secure_design(3, 4, f, 2),
     "combination design failed verification, witness ('SA',)"),
], ids=["secure_lif", "combination_secure_design"])
def test_a_design_failing_its_own_verification_raises_with_the_witness(
        gf7, monkeypatch, build, message):
    """Each construction verifies its output and raises InvariantViolated,
    carrying the verification's witness, when that fails."""
    monkeypatch.setattr(securecode, "verify_secrecy_condition", lambda *args: (False, ("SA",)))
    with pytest.raises(InvariantViolated) as exc:
        build(gf7)
    assert (str(exc.value), exc.value.witness) == (message, ("SA",))


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2)])
def test_coset_generator_is_a_cai_yeung_matrix(p, m):
    """The coset code's encoder matrix G, transposed, is a Cai-Yeung T whose
    equivalent coset code has the same H: the paper's equivalence both ways."""
    f = field_new(p, m)
    rng = random.Random(p ** m)
    for n in range(1, 6):
        for k in range(n + 1):
            H = random_full_rank_matrix(rng, f, k, n)
            T = FMatrix(f, CosetCode(H).generator).transpose()
            assert cai_yeung_to_coset(T, k).parity_check == H


def test_byzantine_identity_matches_plain_condition(gf3):
    H = FMatrix(gf3, [[1, 1]])
    G = FMatrix.identity(gf3, 2)
    for be, expect in (((1, 1), False), ((1, 2), True)):
        code = butterfly_code(gf3, be)
        ok, witness = byzantine_secrecy_check(H, G, code, 1)
        plain_ok, plain_witness = verify_secrecy_condition(H, code, 1)
        assert ok == plain_ok == expect
        assert witness == plain_witness


def test_byzantine_refuses_a_G_over_another_field(gf3):
    # GF(5) entries multiplied in GF(3) arithmetic would give a verdict
    G = FMatrix(field_new(5), [[4, 3], [0, 4]])
    code = butterfly_code(gf3, (1, 2))
    with pytest.raises(FieldMismatch) as info:
        byzantine_secrecy_check(FMatrix(gf3, [[1, 1]]), G, code, 1)
    assert str(info.value) == "G is over GF(5), but the network is over GF(3)"


def test_byzantine_dimension_guards(gf3):
    code = butterfly_code(gf3)
    with pytest.raises(DimensionMismatch):
        byzantine_secrecy_check(FMatrix(gf3, [[1, 1]]),
                                FMatrix.identity(gf3, 3), code, 1)
    # an n x 3 generator takes a 3-column H
    with pytest.raises(DimensionMismatch, match="H has 2 columns, expected 3"):
        byzantine_secrecy_check(FMatrix(gf3, [[1, 1]]),
                                FMatrix(gf3, [[1, 0, 0], [0, 1, 0]]), code, 1)


def test_final_checks_survive_optimized_mode(tmp_path):
    # verification must not be an assert: run the checks under python -O
    script = tmp_path / "check.py"
    script.write_text(textwrap.dedent("""
        import wiretapnc.securecode as sc
        from wiretapnc.exceptions import InvariantViolated
        from wiretapnc.fmatrix import FMatrix
        from wiretapnc.gf import field_new
        from wiretapnc.netgraph import butterfly_code
        from wiretapnc.oracle import CosetChannelOracle

        assert False, "asserts must be stripped under -O"
        f = field_new(3)
        oracle = CosetChannelOracle(FMatrix(f, [[1, 1]]), butterfly_code(f, (1, 2)))
        oracle._symbols[oracle._column["BE"], 0] += 1  # a non-uniform Z table
        try:
            oracle.entropy_terms(("BE",))
        except InvariantViolated:
            pass
        else:
            raise SystemExit("a non-uniform count table returned an entropy")
        sc.verify_secrecy_condition = lambda *args, **kwargs: (False, ("Sm0",))
        try:
            sc.combination_secure_design(3, 4, field_new(7), 2)
        except InvariantViolated as exc:
            if exc.witness != ("Sm0",):
                raise SystemExit(f"wrong witness {exc.witness}")
        else:
            raise SystemExit("failed verification returned a design")
        print("ok")
    """))
    src = Path(wiretapnc.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout.strip()) == (0, "ok"), proc.stderr


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1]
    scope = {}
    exec(example.split("```", 1)[0], scope)
    # python -O strips the example's own asserts, so its results are checked here
    delta, design, H = scope["delta"], scope["design"], scope["H"]
    assert delta == 1 and sorted(design.certificate) == ["checks", "locals"]
    assert min_equivocation_bruteforce(H, design.netcode, 1)[0] == delta
