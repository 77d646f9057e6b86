import pytest

from wiretapnc.equivocation import equivocation_rank
from wiretapnc.exceptions import EnumerationTooLarge, InvariantViolated
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import butterfly_code, parallel_code
from wiretapnc.oracle import (
    CosetChannelOracle,
    min_equivocation_bruteforce,
    snap_integer,
)


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
    assert oracle.secret_equivocation(("BE",)) == 0


def test_secure_edge_leaves_secret_independent(gf3):
    H = FMatrix(gf3, [[1, 1]])
    oracle = CosetChannelOracle(H, butterfly_code(gf3, (1, 2)))
    assert oracle.secret_equivocation(("BE",)) == 1
    # full independence: H(S, Z) = H(Z) + H(S|Z) = 2 = log_3 9, so the joint
    # law is uniform on all 9 (s, z) cells
    terms = oracle.entropy_terms(("BE",))
    assert terms["H(Z)"] == pytest.approx(1)
    assert terms["H(S|Z)"] == pytest.approx(1)


def test_empty_observation(gf3):
    H = FMatrix(gf3, [[1, 1]])
    oracle = CosetChannelOracle(H, butterfly_code(gf3))
    assert oracle.secret_equivocation(()) == 1  # prior uncertainty k = 1


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
    # GF(4) runs the table-driven numpy path, GF(9) the pure-python one;
    # both must agree with the rank formula
    for p, m in ((2, 2), (3, 2)):
        f = field_new(p, m)
        code = parallel_code(3, f)
        alpha = int(f.primitive_element())
        H = FMatrix(f, [[1, 1, 1], [1, alpha, f.mul(alpha, alpha)]])
        for mu in (0, 1, 2, 3):
            brute, _ = min_equivocation_bruteforce(H, code, mu)
            assert brute == equivocation_rank(H, code, mu)[0]


def test_mu_zero_returns_prior(gf3):
    H = FMatrix(gf3, [[1, 1]])
    assert min_equivocation_bruteforce(H, butterfly_code(gf3), 0) == (1, ())


def test_enumeration_cap(gf3, monkeypatch):
    monkeypatch.setenv("WIRETAP_NC_ENUM_CAP", "5")
    H = FMatrix(gf3, [[1, 1]])
    with pytest.raises(EnumerationTooLarge):
        min_equivocation_bruteforce(H, butterfly_code(gf3), 1)


def test_snap_integer():
    assert snap_integer(2.0000000000003) == 2
    with pytest.raises(InvariantViolated):
        snap_integer(1.5)
