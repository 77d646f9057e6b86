"""Acyclic multicast network model and linear network-code state.

Edges carry the coding state.  The source is modeled with n virtual inputs
carrying the unit vectors, so source out-edges are coded uniformly with all
other edges: every edge has a local coefficient vector over its tail's
in-edges (the n virtual inputs for source out-edges) and a derived global
coding vector of length n.

Edges are visited in a fixed topological order (Kahn on nodes, ties broken by
edge id) by every algorithm, so all outputs are deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .exceptions import (
    AcyclicityViolated,
    BadParameters,
    DimensionMismatch,
    InsufficientCut,
    SingularDecodingMatrix,
    SingularMatrix,
    UnknownNode,
)
from .fmatrix import FMatrix, combination, dot
from .gf import FieldSpec


@dataclass(frozen=True)
class Edge:
    id: str
    tail: str
    head: str


@dataclass(frozen=True)
class Flow:
    """n edge-disjoint source-to-receiver paths, as edge-id lists."""

    receiver: str
    paths: tuple


class Network:
    def __init__(self, nodes, edges, source, receivers, n: int, field: FieldSpec):
        self.nodes = tuple(nodes)
        self.edges = tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges)
        self.source = source
        self.receivers = tuple(receivers)
        self.n = n
        self.field = field

        node_set = set(self.nodes)
        for e in self.edges:
            if e.tail not in node_set or e.head not in node_set:
                raise UnknownNode(f"edge {e.id} references unknown node")
        if source not in node_set:
            raise UnknownNode(f"unknown source {source}")
        for r in self.receivers:
            if r not in node_set:
                raise UnknownNode(f"unknown receiver {r}")
        ids = [e.id for e in self.edges]
        if len(set(ids)) != len(ids):
            raise BadParameters("duplicate edge ids")
        if any(e.head == source for e in self.edges):
            raise BadParameters("source must have no incoming edges")

        self.edge_by_id = {e.id: e for e in self.edges}
        self._in = {v: [] for v in self.nodes}
        self._out = {v: [] for v in self.nodes}
        for e in self.edges:
            self._in[e.head].append(e)
            self._out[e.tail].append(e)

        self._node_rank = self._toposort_nodes()
        self.topological_order = tuple(
            sorted(self.edges, key=lambda e: (self._node_rank[e.tail], e.id))
        )
        for r in self.receivers:
            cut = self.min_cut(r)
            if cut < n:
                raise InsufficientCut(
                    f"min-cut to {r} is {cut} < n={n}", receiver=r
                )

    def _toposort_nodes(self):
        indeg = {v: 0 for v in self.nodes}
        for e in self.edges:
            indeg[e.head] += 1
        ready = sorted(v for v, d in indeg.items() if d == 0)
        queue = deque(ready)
        rank = {}
        while queue:
            v = queue.popleft()
            rank[v] = len(rank)
            for e in sorted(self._out[v], key=lambda e: e.id):
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    queue.append(e.head)
        if len(rank) != len(self.nodes):
            raise AcyclicityViolated("network graph contains a cycle")
        return rank

    def in_edges(self, node):
        return tuple(self._in[node])

    def out_edges(self, node):
        return tuple(self._out[node])

    # ---- flows ----

    def _max_flow(self, receiver):
        """BFS augmenting paths on the unit-capacity edge graph.

        Returns (value, used) where used is the set of edge ids carrying flow
        oriented forward.
        """
        if receiver not in self._in:
            raise UnknownNode(f"unknown node {receiver}")
        flow = {e.id: 0 for e in self.edges}
        value = 0
        while True:
            prev = {self.source: None}
            queue = deque([self.source])
            while queue and receiver not in prev:
                v = queue.popleft()
                for e in self._out[v]:
                    if flow[e.id] == 0 and e.head not in prev:
                        prev[e.head] = (e, +1)
                        queue.append(e.head)
                for e in self._in[v]:
                    if flow[e.id] == 1 and e.tail not in prev:
                        prev[e.tail] = (e, -1)
                        queue.append(e.tail)
            if receiver not in prev:
                break
            v = receiver
            while v != self.source:
                e, direction = prev[v]
                flow[e.id] += direction
                v = e.head if direction < 0 else e.tail
            value += 1
        used = {eid for eid, fl in flow.items() if fl == 1}
        return value, used

    def min_cut(self, receiver) -> int:
        value, _ = self._max_flow(receiver)
        return value

    def edge_disjoint_flows(self, n: int | None = None):
        """One Flow of n disjoint paths per receiver; raises InsufficientCut."""
        n = self.n if n is None else n
        flows = {}
        for r in self.receivers:
            value, used = self._max_flow(r)
            if value < n:
                raise InsufficientCut(f"min-cut to {r} is {value} < n={n}", receiver=r)
            used = set(used)
            paths = []
            for _ in range(n):
                path = []
                v = self.source
                while v != r:
                    step = next(
                        e for e in self._out[v] if e.id in used
                    )
                    used.discard(step.id)
                    path.append(step.id)
                    v = step.head
                paths.append(tuple(path))
            flows[r] = Flow(r, tuple(paths))
        return flows


class NetworkCode:
    """Local coefficients plus propagated global coding vectors per edge."""

    def __init__(self, network: Network, n: int | None = None):
        self.network = network
        self.n = network.n if n is None else n
        self.local = {}
        self.global_vectors = {}
        self._units = tuple(
            tuple(1 if i == j else 0 for j in range(self.n)) for i in range(self.n)
        )

    @property
    def field(self):
        return self.network.field

    def inputs(self, edge_id):
        """The vectors an edge's local coefficients combine: the n unit
        vectors (virtual inputs) for a source out-edge, else the global
        vectors of its tail's in-edges, in in-edge order."""
        net = self.network
        e = net.edge_by_id[edge_id]
        if e.tail == net.source:
            return self._units
        return [self.global_vectors[ie.id] for ie in net.in_edges(e.tail)]

    def set_local(self, edge_id, coeffs):
        net = self.network
        e = net.edge_by_id[edge_id]
        # one coefficient per vector of inputs(edge_id)
        expected = self.n if e.tail == net.source else len(net.in_edges(e.tail))
        coeffs = [int(net.field.element(c)) for c in coeffs]
        if len(coeffs) != expected:
            raise DimensionMismatch(
                f"edge {edge_id} needs {expected} local coefficients"
            )
        self.local[edge_id] = tuple(coeffs)

    def propagate(self):
        """Recompute all global vectors in topological order (idempotent)."""
        for e in self.network.topological_order:
            if e.id not in self.local:
                raise DimensionMismatch(f"edge {e.id} has no local coefficients")
            self.global_vectors[e.id] = tuple(
                combination(self.field, self.local[e.id], self.inputs(e.id), self.n)
            )
        return self.global_vectors

    def coding_matrix(self, edge_ids) -> FMatrix:
        """C_W: rows are the global coding vectors of the given edges."""
        return FMatrix(
            self.field,
            [self.global_vectors[eid] for eid in edge_ids],
            self.n,
        )

    def payloads(self, y):
        """Concrete symbol carried by each edge for channel word y."""
        if len(y) != self.n:
            raise DimensionMismatch(f"channel word must have length {self.n}")
        f = self.field
        y = [int(f.element(v)) for v in y]
        return {
            eid: dot(f, vec, y) for eid, vec in self.global_vectors.items()
        }

    def receiver_decode(self, flow: Flow, payloads):
        """Recover Y from the payloads on the flow's terminal edges."""
        last_edges = [path[-1] for path in flow.paths]
        B = self.coding_matrix(last_edges)
        try:
            Binv = B.invert()
        except SingularMatrix as exc:
            raise SingularDecodingMatrix(
                f"decoding matrix for {flow.receiver} is singular"
            ) from exc
        z = [payloads[eid] for eid in last_edges]
        return Binv.mul_vec(z)


# ---- built-in example networks ----

BUTTERFLY_EDGES = (
    ("SA", "S", "A"),
    ("SC", "S", "C"),
    ("AB", "A", "B"),
    ("CB", "C", "B"),
    ("AD", "A", "D"),
    ("CF", "C", "F"),
    ("BE", "B", "E"),
    ("ED", "E", "D"),
    ("EF", "E", "F"),
)


def butterfly_network(field: FieldSpec) -> Network:
    """The two-receiver butterfly: 9 coded edges, receivers D and F, n = 2."""
    return Network(
        nodes=("S", "A", "B", "C", "D", "E", "F"),
        edges=BUTTERFLY_EDGES,
        source="S",
        receivers=("D", "F"),
        n=2,
        field=field,
    )


def butterfly_code(field: FieldSpec, be_local=(1, 1)) -> NetworkCode:
    """The classic butterfly code; node B mixes with coefficients `be_local`.

    (1, 1) gives the insecure textbook code, (1, alpha) the secure variant.
    """
    net = butterfly_network(field)
    code = NetworkCode(net)
    locals_ = {
        "SA": (1, 0),
        "SC": (0, 1),
        "AB": (1,),
        "AD": (1,),
        "CB": (1,),
        "CF": (1,),
        "BE": tuple(be_local),
        "ED": (1,),
        "EF": (1,),
    }
    for eid, coeffs in locals_.items():
        code.set_local(eid, coeffs)
    code.propagate()
    return code


def parallel_network(n: int, field: FieldSpec) -> Network:
    """n disjoint source-to-sink edges: the wiretap-channel-II network."""
    edges = [(f"e{i}", "S", "R") for i in range(n)]
    return Network(("S", "R"), edges, "S", ("R",), n, field)


def parallel_code(n: int, field: FieldSpec) -> NetworkCode:
    net = parallel_network(n, field)
    code = NetworkCode(net)
    for i in range(n):
        code.set_local(f"e{i}", [1 if j == i else 0 for j in range(n)])
    code.propagate()
    return code


def combination_network(n: int, M: int, field: FieldSpec) -> Network:
    """B(n, M): source, M middle nodes, choose(M, n) receivers on n-subsets."""
    if M < n or n < 1:
        raise BadParameters(f"need M >= n >= 1, got n={n}, M={M}")
    middles = [f"m{i}" for i in range(M)]
    nodes = ["S"] + middles
    edges = [(f"Sm{i}", "S", f"m{i}") for i in range(M)]
    receivers = []
    for idx, subset in enumerate(combinations(range(M), n)):
        r = f"r{idx}"
        nodes.append(r)
        receivers.append(r)
        for i in subset:
            edges.append((f"m{i}r{idx}", f"m{i}", r))
    return Network(nodes, edges, "S", receivers, n, field)
