"""Every resource cap refuses with one class, `CapExceeded`, and a message
that names the cap's constant; the cap is read when the call runs."""

import pytest

from wiretapnc import coset, equivocation, oracle, securecode
from wiretapnc.exceptions import CapExceeded
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import FieldSpec, field_new
from wiretapnc.netgraph import butterfly_code, butterfly_network

f3 = field_new(3)

# case -> (cap lowered as (module, name, value), or None; call; match)
CAPS = {
    "ORDER_CAP": (None, lambda: field_new(2, 21),
                  r"^order 2\^21 exceeds ORDER_CAP = 1048576$"),
    # refused on size before p is factored or p^m formed, neither of which would finish
    "ORDER_CAP-huge-p": (None, lambda: FieldSpec(2 ** 61 - 1),
                         r"^order 2305843009213693951\^1 exceeds ORDER_CAP"),
    "ORDER_CAP-huge-m": (None, lambda: FieldSpec(3, 10 ** 11),
                         r"^order 3\^100000000000 exceeds ORDER_CAP"),
    "MDS_SUBSET_CAP": (
        (coset, "MDS_SUBSET_CAP", 1),
        lambda: coset.is_mds_parity_check(coset.rs_parity_check(2, 3, field_new(7))),
        r"^choose\(3, 2\) exceeds MDS_SUBSET_CAP = 1$"),
    "GHW_CODEWORD_CAP-codewords": (
        None,
        lambda: equivocation.generalized_hamming_weights(FMatrix.identity(field_new(5), 10)),
        r"^q\^k = 9765625 exceeds GHW_CODEWORD_CAP = 1000000$"),
    # 7 nonzero codewords pass a cap of 10, but choose(7, 2) = 21 pairs do not
    "GHW_CODEWORD_CAP-subsets": (
        (equivocation, "GHW_CODEWORD_CAP", 10),
        lambda: equivocation.generalized_hamming_weights(FMatrix.identity(field_new(2), 3)),
        r"^choose\(7, 2\) exceeds GHW_CODEWORD_CAP = 10$"),
    # the cap counts receiver checks too: with k = 0 there are no others
    "SUBSET_CHECK_CAP-k0": (
        (securecode, "SUBSET_CHECK_CAP", 3),
        lambda: securecode.secure_lif(butterfly_network(f3), 2, 1, FMatrix(f3, [], 2)),
        "SUBSET_CHECK_CAP = 3 .* at edge "),
    "SUBSET_CHECK_CAP-k1": (
        (securecode, "SUBSET_CHECK_CAP", 3),
        lambda: securecode.secure_lif(butterfly_network(f3), 2, 1, FMatrix(f3, [[1, 1]])),
        "SUBSET_CHECK_CAP = 3 .* at edge "),
    "ENUM_CAP": (
        (oracle, "ENUM_CAP", 5),
        lambda: oracle.min_equivocation_bruteforce(FMatrix(f3, [[1, 1]]), butterfly_code(f3), 1),
        r"^q\^n = 9 outcomes exceed ENUM_CAP = 5$"),
}


@pytest.mark.parametrize("case", CAPS)
def test_cap_raises_cap_exceeded(case, monkeypatch):
    lowered, call, match = CAPS[case]
    if lowered:
        monkeypatch.setattr(*lowered)
    with pytest.raises(CapExceeded, match=match):
        call()
