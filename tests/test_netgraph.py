import random
from collections import deque
from math import comb

import pytest
from conftest import random_multicast_network, reference_flows

from wiretapnc import netgraph
from wiretapnc.exceptions import (
    AcyclicityViolated,
    BadParameters,
    DimensionMismatch,
    EntryOutOfRange,
    InsufficientCut,
    MalformedInput,
    SingularDecodingMatrix,
    UnknownNode,
)
from wiretapnc.fmatrix import FMatrix, combination
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
from wiretapnc.securecode import secure_lif


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
    # flows are kept per receiver, so a repeated receiver would be dropped
    with pytest.raises(MalformedInput, match=r"duplicate receivers \['R'\]"):
        Network(("S", "R"), [("e", "S", "R")], "S", ("R", "R"), 1, gf2)


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


def random_dag_network(rng, field):
    """A random acyclic network, parallel edges allowed, with n the least
    min cut to its receivers: its augmenting paths can run edges backwards."""
    nodes = ["S"] + [f"v{i}" for i in range(rng.randint(2, 7))]
    edges = []
    for j in range(rng.randint(len(nodes), 3 * len(nodes))):
        a = rng.randrange(len(nodes) - 1)
        edges.append((f"e{j}", nodes[a], nodes[rng.randint(a + 1, len(nodes) - 1)]))
    receivers = rng.sample(nodes[1:], rng.randint(1, len(nodes) - 1))
    probe = Network(nodes, edges, "S", receivers, 0, field)
    n = min(value for value, _ in reference_flows(probe).values())
    return Network(nodes, edges, "S", receivers, n, field)


def backward_step_network(field):
    """The shortest first path S-a-x-T blocks b, so the second augmenting
    path S-b-x runs a-x backwards and leaves by a-y-T."""
    edges = [("Sa", "S", "a"), ("Sb", "S", "b"), ("ax", "a", "x"), ("bx", "b", "x"),
             ("xT", "x", "T"), ("ay", "a", "y"), ("yT", "y", "T")]
    return Network(("S", "a", "b", "x", "y", "T"), edges, "S", ("T",), 2, field)


def test_max_flow_reroutes_over_a_backward_edge(gf2):
    net = backward_step_network(gf2)
    assert net.min_cut("T") == 2
    assert net.edge_disjoint_flows()["T"].paths == (("Sa", "ay", "yT"), ("Sb", "bx", "xT"))


def flow_corpus():
    """The butterfly, the backward-step network, B(2,3) to B(5,9), 500
    random multicast networks and 200 random acyclic networks, all seeded."""
    rng = random.Random(20261018)
    f = field_new(2)
    nets = [butterfly_network(f), backward_step_network(f)]
    nets += [combination_network(n, M, f) for n in range(2, 6) for M in range(n + 1, 10)]
    for _ in range(500):
        n, t = rng.randint(1, 4), rng.randint(1, 4)
        nets.append(random_multicast_network(rng, n, t, f, n - 1 + t * n + rng.randint(0, 3)))
    nets += [random_dag_network(rng, f) for _ in range(200)]
    return nets


def test_stored_flows_equal_a_fresh_max_flow():
    nets = flow_corpus()
    assert len(nets) == 724
    for net in nets:
        flows = net.edge_disjoint_flows()
        assert list(flows) == list(net.receivers)
        for r, (value, paths) in reference_flows(net).items():
            assert net.min_cut(r) == value
            assert flows[r].paths == paths


def dead_end_fan_network(field):
    """500 source edges into dead ends, and one from each relay, all listed
    before the edges that reach the receivers."""
    fan = [(f"f{i}", "S", f"d{i}") for i in range(500)]
    edges = fan + [("ax", "a", "x"), ("bx", "b", "x"), ("Sa", "S", "a"), ("Sb", "S", "b"),
                   ("aR", "a", "R"), ("bR", "b", "R"), ("aQ", "a", "Q"), ("bQ", "b", "Q")]
    nodes = ["S", "a", "b", "x", "R", "Q"] + [f"d{i}" for i in range(500)]
    return Network(nodes, edges, "S", ("R", "Q"), 2, field)


def receiver_feeding_receiver_network(field):
    """R's out-edges lead to T, so T's flow runs through R, and R's search
    must not follow them."""
    edges = [("Sa", "S", "a"), ("Sb", "S", "b"), ("aR", "a", "R"), ("bR", "b", "R"),
             ("RT", "R", "T"), ("RU", "R", "U"), ("bT", "b", "T"), ("UT", "U", "T")]
    return Network(("S", "a", "b", "R", "U", "T"), edges, "S", ("T", "R"), 2, field)


def unreachable_receiver_network(field, n):
    """U feeds R but nothing reaches U, so U's min cut is 0."""
    edges = [("SA", "S", "A"), ("AR", "A", "R"), ("UR", "U", "R")]
    return Network(("S", "A", "U", "R"), edges, "S", ("R", "U"), n, field)


def ancestors(net, r):
    found, stack = {r}, [r]
    while stack:
        v = stack.pop()
        for e in net.in_edges(v):
            if e.tail not in found:
                found.add(e.tail)
                stack.append(e.tail)
    return found


SEARCH_NETWORKS = {
    "B(5,10)": lambda f: combination_network(5, 10, f),
    "dead-end-fan": dead_end_fan_network,
    "receiver-feeds-receiver": receiver_feeding_receiver_network,
    "unreachable-receiver": lambda f: unreachable_receiver_network(f, 0),
}


@pytest.mark.parametrize("build", SEARCH_NETWORKS.values(), ids=SEARCH_NETWORKS)
def test_ancestor_searches_find_the_reference_flows(build):
    net = build(field_new(2))
    flows = net.edge_disjoint_flows()
    assert list(flows) == list(net.receivers)
    for r, (value, paths) in reference_flows(net).items():
        assert net.min_cut(r) == value
        assert flows[r].paths == paths


def test_unreachable_receiver_has_cut_zero(gf2):
    with pytest.raises(InsufficientCut, match=r"^min-cut to U is 0 < n=1$") as exc:
        unreachable_receiver_network(gf2, 1)
    assert exc.value.receiver == "U"


@pytest.mark.parametrize("build", SEARCH_NETWORKS.values(), ids=SEARCH_NETWORKS)
def test_max_flow_enqueues_only_the_receivers_ancestors(monkeypatch, build):
    net = build(field_new(2))
    enqueued = []

    class RecordingDeque(deque):
        def __init__(self, items=()):
            super().__init__(items)
            enqueued.extend(items)

        def append(self, v):
            enqueued.append(v)
            super().append(v)

    monkeypatch.setattr(netgraph, "deque", RecordingDeque)
    for r in net.receivers:
        enqueued.clear()
        assert net._max_flow(r)[0] == net.min_cut(r)
        assert enqueued[0] == net.source
        assert set(enqueued) <= ancestors(net, r) | {net.source}
        assert (r in enqueued) == (net.min_cut(r) > 0)


def test_max_flow_runs_once_per_receiver_when_the_network_is_built(monkeypatch):
    calls = []
    max_flow = Network._max_flow
    monkeypatch.setattr(Network, "_max_flow",
                        lambda net, r: calls.append(r) or max_flow(net, r))
    for build, q, H_row in ((butterfly_network, 3, [1, 1]),
                            (lambda f: combination_network(4, 10, f), 23, [1, 1, 1, 1])):
        f = field_new(q)
        net = build(f)
        assert calls == list(net.receivers)
        calls.clear()
        net.edge_disjoint_flows()
        secure_lif(net, net.n, 1, FMatrix(f, [H_row]))
        assert calls == []


def test_min_cut_is_kept_for_receivers_only(gf3):
    with pytest.raises(UnknownNode, match="unknown receiver A"):
        butterfly_network(gf3).min_cut("A")


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


def test_propagate_copies_source_edge_locals(monkeypatch, gf7):
    """A source out-edge's global vector is its local vector, the combination
    of the unit vectors it weights; only the other edges run a combination."""
    rng = random.Random(7)
    net = random_multicast_network(rng, 3, 2, gf7, 14)
    code = NetworkCode(net)
    for e in net.edges:
        width = 3 if e.tail == net.source else len(net.in_edges(e.tail))
        code.set_local(e.id, [rng.randrange(7) for _ in range(width)])
    combined = []
    monkeypatch.setattr(netgraph, "combination",
                        lambda *args: combined.append(args) or combination(*args))
    code.propagate()
    at_source = [e.id for e in net.edges if e.tail == net.source]
    assert len(combined) == len(net.edges) - len(at_source) > 0
    for eid in at_source:
        assert code.global_vectors[eid] == tuple(
            combination(gf7, code.local[eid], code.inputs(eid), 3))


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


def test_non_integer_entries_refused(gf3):
    with pytest.raises(EntryOutOfRange):
        FMatrix(gf3, [[1.5]])
    M = FMatrix(gf3, [[1, 0], [0, 1]])
    for v in ([1.0, 0], ["1", 0]):
        with pytest.raises(EntryOutOfRange):
            M.mul_vec(v)
    code = NetworkCode(butterfly_network(gf3))
    with pytest.raises(EntryOutOfRange):
        code.set_local("SA", [1.9, 0])
