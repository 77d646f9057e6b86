import os
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest

import wiretapnc
from wiretapnc import securecode
from wiretapnc.coset import CosetCode
from wiretapnc.exceptions import (
    BudgetExceedsCut,
    ComplexityCapExceeded,
    DimensionMismatch,
    FieldTooSmall,
    InsufficientCut,
)
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import butterfly_code, butterfly_network, parallel_network
from wiretapnc.securecode import (
    alphabet_bound_general,
    alphabet_bound_minimal,
    alphabet_bound_two_sources,
    byzantine_secrecy_check,
    cai_yeung_to_coset,
    combination_secure_design,
    projective_line_colors,
    secure_lif,
    verify_secrecy_condition,
    wiretappable_edges,
)


def test_wiretappable_edges(gf3):
    code = butterfly_code(gf3)
    assert wiretappable_edges(code)[:3] == ["AB", "AD", "BE"]
    assert wiretappable_edges(code, ["SC", "SA"]) == ["SA", "SC"]
    with pytest.raises(DimensionMismatch):
        wiretappable_edges(code, ["nope"])


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


def test_verify_budget_guard(gf3):
    H = FMatrix(gf3, [[1, 1]])
    with pytest.raises(BudgetExceedsCut):
        verify_secrecy_condition(H, butterfly_code(gf3), 3)


def test_secure_lif_butterfly(gf3):
    net = butterfly_network(gf3)
    H = FMatrix(gf3, [[1, 1]])
    design = secure_lif(net, 2, 1, H)
    assert design.certificate["verified"]
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


def test_secure_lif_field_too_small(gf2):
    net = butterfly_network(gf2)
    H = FMatrix(gf2, [[1, 1]])
    with pytest.raises(FieldTooSmall) as exc:
        secure_lif(net, 2, 1, H)
    assert exc.value.bound >= 3


@pytest.mark.parametrize("H_rows", [[], [[1, 1]]])
def test_secure_lif_check_cap_is_read_at_call_time(gf3, monkeypatch, H_rows):
    """The cap counts receiver checks too: with k = 0 there are no others."""
    H = FMatrix(gf3, H_rows, 2)
    monkeypatch.setattr(securecode, "SUBSET_CHECK_CAP", 3)
    with pytest.raises(ComplexityCapExceeded, match="SUBSET_CHECK_CAP = 3 .* at edge "):
        secure_lif(butterfly_network(gf3), 2, 1, H)
    monkeypatch.undo()
    assert secure_lif(butterfly_network(gf3), 2, 1, H).certificate["checks"] > 3


def test_secure_lif_insufficient_cut(gf3):
    net = parallel_network(2, gf3)
    H = FMatrix(gf3, [[1, 1, 1]])
    with pytest.raises(InsufficientCut):
        secure_lif(net, 3, 1, H)


def test_alphabet_bounds():
    assert alphabet_bound_general(9, 1, 2) == 3
    assert alphabet_bound_two_sources(2) == 3
    assert alphabet_bound_two_sources(7) == 5
    assert alphabet_bound_minimal(1, 1, 1) == 2
    assert alphabet_bound_general(12, 2, 3) == 14
    # the two-source bound is the largest s with s^2 - s + 2 <= 2t, plus one
    for t in range(1, 40):
        s = alphabet_bound_two_sources(t) - 1
        assert s * s - s + 2 <= 2 * t < (s + 1) * s + 2
    with pytest.raises(DimensionMismatch):
        alphabet_bound_general(0, 1, 1)
    with pytest.raises(DimensionMismatch):
        alphabet_bound_two_sources(0)


def test_projective_line_colors(gf3):
    assert projective_line_colors(gf3) == [(0, 1), (1, 0), (1, 1), (1, 2)]
    assert projective_line_colors(gf3, exclude_all_ones=True) == [
        (0, 1), (1, 0), (1, 2)]
    f4 = field_new(2, 2)
    assert len(projective_line_colors(f4)) == 5  # q + 1 points


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


def test_byzantine_identity_matches_plain_condition(gf3):
    H = FMatrix(gf3, [[1, 1]])
    G = FMatrix.identity(gf3, 2)
    for be, expect in (((1, 1), False), ((1, 2), True)):
        code = butterfly_code(gf3, be)
        ok, witness = byzantine_secrecy_check(H, G, code, 1)
        plain_ok, plain_witness = verify_secrecy_condition(H, code, 1)
        assert ok == plain_ok == expect
        assert witness == plain_witness


def test_byzantine_dimension_guards(gf3):
    code = butterfly_code(gf3)
    with pytest.raises(DimensionMismatch):
        byzantine_secrecy_check(FMatrix(gf3, [[1, 1]]),
                                FMatrix.identity(gf3, 3), code, 1)


def test_final_checks_survive_optimized_mode(tmp_path):
    # verification must not be an assert: run the checks under python -O
    script = tmp_path / "check.py"
    script.write_text(textwrap.dedent("""
        import wiretapnc.securecode as sc
        from wiretapnc.exceptions import InvariantViolated
        from wiretapnc.gf import field_new
        from wiretapnc.oracle import snap_integer

        assert False, "asserts must be stripped under -O"
        try:
            snap_integer(0.5)
        except InvariantViolated:
            pass
        else:
            raise SystemExit("snap_integer(0.5) returned")
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
