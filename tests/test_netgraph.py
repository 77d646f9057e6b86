from math import comb

import pytest

from wiretapnc.exceptions import (
    AcyclicityViolated,
    BadParameters,
    DimensionMismatch,
    InsufficientCut,
    SingularDecodingMatrix,
    UnknownNode,
)
from wiretapnc.fmatrix import FMatrix
from wiretapnc.gf import field_new
from wiretapnc.netgraph import (
    Network,
    NetworkCode,
    butterfly_code,
    butterfly_network,
    combination_network,
    parallel_code,
    parallel_network,
)


def test_butterfly_shape(gf3):
    net = butterfly_network(gf3)
    assert len(net.edges) == 9
    assert net.receivers == ("D", "F")
    assert net.min_cut("D") == 2 and net.min_cut("F") == 2
    assert [e.id for e in net.topological_order][:2] == ["SA", "SC"]


def test_construction_guards(gf2):
    with pytest.raises(UnknownNode):
        Network(("S", "R"), [("e", "S", "X")], "S", ("R",), 1, gf2)
    with pytest.raises(UnknownNode):
        Network(("S", "R"), [("e", "S", "R")], "S", ("X",), 1, gf2)
    with pytest.raises(BadParameters):
        Network(("S", "R"), [("a", "S", "R"), ("a", "S", "R")], "S", ("R",), 1, gf2)
    with pytest.raises(BadParameters):
        Network(("S", "R"), [("a", "S", "R"), ("b", "R", "S")], "S", (), 1, gf2)
    with pytest.raises(AcyclicityViolated):
        Network(("S", "A", "B"), [("e0", "S", "A"), ("e1", "A", "B"),
                                  ("e2", "B", "A")], "S", (), 1, gf2)
    with pytest.raises(InsufficientCut) as exc:
        Network(("S", "R"), [("e", "S", "R")], "S", ("R",), 2, gf2)
    assert exc.value.receiver == "R"


def test_edge_disjoint_flows_are_valid(gf3):
    net = butterfly_network(gf3)
    flows = net.edge_disjoint_flows()
    for r, flow in flows.items():
        assert len(flow.paths) == 2
        used = []
        for path in flow.paths:
            v = "S"
            for eid in path:
                e = net.edge_by_id[eid]
                assert e.tail == v
                v = e.head
            assert v == r
            used.extend(path)
        assert len(used) == len(set(used))  # edge-disjoint


def test_butterfly_code_global_vectors(gf3):
    code = butterfly_code(gf3)  # insecure variant: BE mixes with (1, 1)
    g = code.global_vectors
    assert g["SA"] == (1, 0) and g["SC"] == (0, 1)
    assert g["AB"] == (1, 0) and g["CB"] == (0, 1)
    assert g["BE"] == g["ED"] == g["EF"] == (1, 1)
    secure = butterfly_code(gf3, be_local=(1, 2))
    assert secure.global_vectors["BE"] == (1, 2)


def test_inputs_are_virtual_inputs_at_source_and_in_edge_vectors_elsewhere(gf3):
    code = butterfly_code(gf3, be_local=(1, 2))
    g = code.global_vectors
    for eid in ("SA", "SC"):
        assert [tuple(v) for v in code.inputs(eid)] == [(1, 0), (0, 1)]
    assert [tuple(v) for v in code.inputs("BE")] == [g["AB"], g["CB"]]
    assert [tuple(v) for v in code.inputs("AB")] == [g["SA"]]
    assert [tuple(v) for v in code.inputs("ED")] == [g["BE"]]
    for e in code.network.edges:
        assert len(code.inputs(e.id)) == len(code.local[e.id])


def test_propagate_is_idempotent(gf3):
    code = butterfly_code(gf3, be_local=(1, 2))
    before = dict(code.global_vectors)
    code.propagate()
    assert code.global_vectors == before


def test_set_local_validates_length(gf3):
    net = butterfly_network(gf3)
    code = NetworkCode(net)
    with pytest.raises(DimensionMismatch):
        code.set_local("SA", (1,))  # source out-edges take n coefficients
    with pytest.raises(DimensionMismatch):
        code.set_local("BE", (1,))  # B has two in-edges


def test_propagate_requires_all_locals(gf3):
    code = NetworkCode(butterfly_network(gf3))
    code.set_local("SA", (1, 0))
    with pytest.raises(DimensionMismatch):
        code.propagate()


def test_coding_matrix_and_payloads(gf3):
    code = butterfly_code(gf3, be_local=(1, 2))
    C = code.coding_matrix(["SA", "BE"])
    assert C.data == ((1, 0), (1, 2))
    pay = code.payloads([1, 2])
    assert pay["SA"] == 1 and pay["SC"] == 2 and pay["BE"] == (1 + 2 * 2) % 3


def test_receivers_decode_both_butterfly_codes(gf3):
    for be in ((1, 1), (1, 2)):
        code = butterfly_code(gf3, be_local=be)
        flows = code.network.edge_disjoint_flows()
        y = [1, 2]
        pay = code.payloads(y)
        for r, flow in flows.items():
            assert code.receiver_decode(flow, pay) == y


def test_singular_decoding_matrix(gf3):
    net = butterfly_network(gf3)
    code = NetworkCode(net)
    # route only the first source symbol everywhere: receivers cannot decode
    for e in net.edges:
        deg = 2 if e.tail == "S" else len(net.in_edges(e.tail))
        code.set_local(e.id, [1] + [0] * (deg - 1))
    code.propagate()
    flows = net.edge_disjoint_flows()
    with pytest.raises(SingularDecodingMatrix):
        code.receiver_decode(flows["D"], code.payloads([1, 0]))


def test_parallel_network_is_identity_code(gf2):
    code = parallel_code(3, gf2)
    assert code.coding_matrix(["e0", "e1", "e2"]) == FMatrix.identity(gf2, 3)
    assert parallel_network(3, gf2).min_cut("R") == 3


def test_combination_network_shape(gf7):
    net = combination_network(3, 4, gf7)
    assert len(net.receivers) == comb(4, 3)
    assert len(net.edges) == 4 + comb(4, 3) * 3
    for r in net.receivers:
        assert net.min_cut(r) == 3
    with pytest.raises(BadParameters):
        combination_network(3, 2, gf7)


def test_parallel_edges_are_supported(gf2):
    net = Network(("S", "R"), [("a", "S", "R"), ("b", "S", "R")],
                  "S", ("R",), 2, gf2)
    assert net.min_cut("R") == 2
    flows = net.edge_disjoint_flows()
    assert sorted(p[0] for p in flows["R"].paths) == ["a", "b"]
