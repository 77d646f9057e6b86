"""Acyclic multicast network model and linear network-code state.

Edges carry the coding state.  The source is modeled with n virtual inputs
carrying the unit vectors, so source out-edges are coded uniformly with all
other edges: every edge has a local coefficient vector over its tail's
in-edges (the n virtual inputs for source out-edges) and a derived global
coding vector of length n.

Edges are visited in one fixed topological order by every algorithm, so all
outputs are deterministic: Kahn's walk, the first ready nodes taken by name,
each node's out-edges by id.  Each receiver's max flow is found once, when
the Network is built, by a forced walk back to the source or else by
augmenting paths over the receiver's ancestors only; its min cut is read
from that flow, and its edge-disjoint paths are decomposed once, on first use.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import cached_property
from itertools import combinations

from .exceptions import (
    AcyclicityViolated,
    BadParameters,
    DimensionMismatch,
    InsufficientCut,
    MalformedInput,
    SingularDecodingMatrix,
    SingularMatrix,
    UnknownNode,
)
from .fmatrix import FMatrix, combination
from .gf import FieldSpec


Edge = namedtuple("Edge", "id tail head index")  # index: position in the edge list

# n edge-disjoint source-to-receiver paths, as edge-id tuples; immutable: Networks share them
Flow = namedtuple("Flow", "receiver paths")


class Network:
    def __init__(self, nodes, edges, source, receivers, n: int, field: FieldSpec):
        self.nodes = tuple(nodes)
        self.edges = tuple(Edge(*e, i) for i, e in enumerate(edges))
        self.source = source
        self.receivers = tuple(receivers)
        self.n = n
        self.field = field

        for what, names in (("node names", self.nodes), ("receivers", self.receivers)):
            if len(set(names)) != len(names):
                repeats = [v for i, v in enumerate(names) if v in names[:i]]
                raise MalformedInput(f"duplicate {what} {repeats}")
        node_set = set(self.nodes)
        for e in self.edges:
            if e.tail not in node_set or e.head not in node_set:
                raise UnknownNode(f"edge {e.id} references unknown node")
        if source not in node_set:
            raise UnknownNode(f"unknown source {source}")
        for r in self.receivers:
            if r not in node_set:
                raise UnknownNode(f"unknown receiver {r}")
            if r == source:  # the source reaches itself, so no search would end
                raise MalformedInput(f"receiver {r} is the source")
        self.edge_by_id = {e.id: e for e in self.edges}
        if len(self.edge_by_id) != len(self.edges):
            raise BadParameters("duplicate edge ids")
        if any(e.head == source for e in self.edges):
            raise BadParameters("source must have no incoming edges")

        self._in = {v: [] for v in self.nodes}
        self._out = {v: [] for v in self.nodes}
        for e in self.edges:
            self._in[e.head].append(e)
            self._out[e.tail].append(e)

        self.topological_order = self._toposort()
        self._flows = {r: self._max_flow(r) for r in self.receivers}
        for r, (cut, _) in self._flows.items():
            if cut < n:
                raise InsufficientCut(
                    f"min-cut to {r} is {cut} < n={n}", receiver=r
                )

    def _toposort(self):
        # an edge on a cycle is never reached, as its tail is never ready
        indeg = {v: len(self._in[v]) for v in self.nodes}
        queue, order = deque(sorted(v for v, d in indeg.items() if d == 0)), []
        while queue:
            for e in sorted(self._out[queue.popleft()]):  # by id: ids are unique
                order.append(e)
                indeg[e.head] -= 1
                if indeg[e.head] == 0:
                    queue.append(e.head)
        if len(order) != len(self.edges):
            raise AcyclicityViolated("network graph contains a cycle")
        return tuple(order)

    def in_edges(self, node):
        return tuple(self._in[node])

    @cached_property
    def sorted_edge_ids(self):
        """The edge ids in wiretap-search order, sorted on first use."""
        return tuple(sorted(self.edge_by_id))

    # ---- flows ----

    def _by_tail(self, edges):
        """{tail: its edges among `edges`, in edge-list order}."""
        out = {}
        for e in sorted(edges, key=lambda e: e.index):
            out.setdefault(e.tail, []).append(e)
        return out

    def _max_flow(self, receiver):
        """(value, used): the receiver's max flow and the ids of the edges that
        carry it, found once when the Network is built.  A forced walk goes back
        from each in-edge of the receiver through nodes of one in-edge; if every
        walk reaches the source on edges walked once, the flow is the receiver's
        in-degree, which bounds it, and flow conservation at those nodes puts
        every max flow on the walked edges.  Otherwise `_augment` searches."""
        used = set()
        for e in self._in[receiver]:
            while e.tail != self.source and len(self._in[e.tail]) == 1 and e.id not in used:
                used.add(e.id)
                e = self._in[e.tail][0]
            if e.tail != self.source or e.id in used:  # a root, a merge or an edge walked twice
                return self._augment(receiver)
            used.add(e.id)
        return len(self._in[receiver]), used

    def _augment(self, receiver):
        """BFS augmenting paths on the unit-capacity edge graph, over the
        receiver's ancestors' in-edges only: flow lies only on
        source-to-receiver paths, and a non-ancestor leads only to
        non-ancestors, so a search of every edge finds the same flow."""
        stack, seen = [receiver], {receiver}  # a reverse walk finds the ancestors
        while stack:
            for e in self._in[stack.pop()]:
                if e.tail not in seen:
                    seen.add(e.tail)
                    stack.append(e.tail)
        out, used, value = self._by_tail(e for v in seen for e in self._in[v]), set(), 0
        while True:
            prev = {self.source: None}
            queue = deque([self.source])
            while queue and receiver not in prev:
                v = queue.popleft()
                for e in out.get(v, ()):
                    if e.id not in used and e.head not in prev:
                        prev[e.head] = (e, v)
                        queue.append(e.head)
                for e in self._in[v]:
                    if e.id in used and e.tail not in prev:
                        prev[e.tail] = (e, v)
                        queue.append(e.tail)
            if receiver not in prev:
                break
            v = receiver
            while v != self.source:
                e, v = prev[v]
                used ^= {e.id}  # a forward step fills e, a backward step empties it
            value += 1
        return value, used

    def min_cut(self, receiver) -> int:
        """The max-flow value to a receiver, found when the Network was built."""
        if receiver not in self._flows:
            raise UnknownNode(f"unknown receiver {receiver}")
        return self._flows[receiver][0]

    @cached_property
    def _decomposed(self):
        """{receiver: its Flow}, decomposed once, on first use, from the max
        flow found when the Network was built: each path leaves every node by
        its first unused flow edge in edge-list order."""
        flows = {}
        for r, (_, used) in self._flows.items():
            out, paths = self._by_tail(self.edge_by_id[eid] for eid in used), []
            for _ in range(self.n):
                path, v = [], self.source
                while v != r:
                    step = out[v].pop(0)
                    path.append(step.id)
                    v = step.head
                paths.append(tuple(path))
            flows[r] = Flow(r, tuple(paths))
        return flows

    @cached_property
    def flow_pairs(self):
        """{edge id: its (receiver, path index) pairs, () off the flow union}."""
        pairs = {e.id: [] for e in self.edges}
        for r, flow in self._decomposed.items():
            for pi, path in enumerate(flow.paths):
                for eid in path:
                    pairs[eid].append((r, pi))
        return {eid: tuple(p) for eid, p in pairs.items()}

    def edge_disjoint_flows(self):
        """One Flow of n disjoint paths per receiver, decomposed once, in a new dict."""
        return dict(self._decomposed)


class NetworkCode:
    """Local coefficients plus propagated global coding vectors per edge, and
    the analyses' preparations made from them (`prepared`)."""

    def __init__(self, network: Network):
        self.network = network
        self.n, self.field = network.n, network.field
        self.local = {}
        self.global_vectors = {}
        self.units = FMatrix.identity(network.field, self.n).data  # the source's n virtual inputs
        self._prepared = {}  # kind -> (key, the global vectors it was made from, the result)

    def prepared(self, kind, key, prepare):
        """prepare(), an analysis over every edge of the code, kept in one
        entry per kind: "walk", the wiretap walk's points without G, and
        "cascade", the same with a cascade G (`securecode.observation_points`),
        and "oracle", the brute-force oracle (`oracle.min_equivocation_bruteforce`).
        The entry is reused while its `key` (H's rows, and G's for the
        cascade: all else `prepare` reads, as tuples) and the code's global
        vectors, read by edge id in `sorted_edge_ids` order, equal those it
        was made from, compared on every call, as callers assign
        `global_vectors` directly; another key or a changed vector replaces
        it, so a code keeps at most three.  A `prepare` that raises keeps
        nothing and leaves the entry as it was.  A restricted edge set is
        prepared for its call only."""
        vectors = tuple(map(self.global_vectors.get, self.network.sorted_edge_ids))
        entry = self._prepared.get(kind)
        if entry is None or entry[0] != key or entry[1] != vectors:
            entry = self._prepared[kind] = key, vectors, prepare()
        return entry[2]

    def inputs(self, edge_id):
        """The vectors an edge's local coefficients combine: the n unit
        vectors (virtual inputs) for a source out-edge, else the global
        vectors of its tail's in-edges, in in-edge order."""
        net = self.network
        e = net.edge_by_id[edge_id]
        if e.tail == net.source:
            return self.units
        return [self.global_vectors[ie.id] for ie in net.in_edges(e.tail)]

    def set_local(self, edge_id, coeffs):
        net = self.network
        e = net.edge_by_id.get(edge_id)
        if e is None:
            raise DimensionMismatch(f"local coefficients name unknown edge {edge_id}")
        # one coefficient per vector of inputs(edge_id)
        expected = self.n if e.tail == net.source else len(net.in_edges(e.tail))
        coeffs = [net.field.check(c) for c in coeffs]
        if len(coeffs) != expected:
            raise DimensionMismatch(
                f"edge {edge_id} needs {expected} local coefficients"
            )
        self.local[edge_id] = tuple(coeffs)

    def propagate(self):
        """Recompute all global vectors in topological order (idempotent).
        A source out-edge's global vector is its local vector: sum c_i e_i = c."""
        for e in self.network.topological_order:
            if e.id not in self.local:
                raise DimensionMismatch(f"edge {e.id} has no local coefficients")
            c = self.local[e.id]
            self.global_vectors[e.id] = c if e.tail == self.network.source else tuple(
                combination(self.field, c, self.inputs(e.id), self.n))
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
        y = [f.check(v) for v in y]
        return {
            eid: f.dot(vec, y) for eid, vec in self.global_vectors.items()
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
