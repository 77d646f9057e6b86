"""`secure_lif`'s candidate search: a golden record of its outputs, and a
record of the steps of `lif.search` (locals, globals, checks and dual bases
after every edge) on networks with every kind of forwarding edge; edges on
no flow, mixing or with no input, taking the zero vector untested; the
forbidden-subspace rule checked candidate by candidate against the rank test
it replaces (`conftest.reference_candidate_verdict`); the pruned prefix
search and the line solve for the last coefficient checked edge by edge
against exhaustive search (`conftest.reference_first_candidate`); and the
security pairs it builds incrementally checked against a fresh enumeration.
The search is driven edge by edge through `lif.search`.

Re-record both files (only when a change of outputs is intended) with
`PYTHONPATH=src python tests/test_secure_lif_rule.py`.
"""

import json
import random
from itertools import product
from pathlib import Path

import pytest

from conftest import (
    kernel,
    mds_parity_check,
    prime_power_parts,
    random_full_rank_matrix,
    random_multicast_network,
    reference_candidate_verdict,
    reference_first_candidate,
    reference_walk,
    smallest_prime_power_at_least,
)
from wiretapnc import lif, securecode
from wiretapnc.coset import CosetCode
from wiretapnc.exceptions import FieldTooSmall
from wiretapnc.fmatrix import FMatrix, back_substitute, combination, echelon, null_space
from wiretapnc.gf import field_new
from wiretapnc.netgraph import Network, NetworkCode, butterfly_network, combination_network
from wiretapnc.oracle import CosetChannelOracle
from wiretapnc.securecode import alphabet_bound_general, secure_lif
from wiretapnc.serialize import (
    matrix_from_json,
    matrix_to_json,
    network_from_json,
    network_to_json,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "secure_lif_golden.json"
STEPS_PATH = Path(__file__).parent / "data" / "lif_forwarding_steps.json"


def _on_field(net, f):
    return Network(net.nodes, [(e.id, e.tail, e.head) for e in net.edges],
                   net.source, net.receivers, net.n, f)


def golden_instances():
    """(name, network, H, mu): the butterfly, four combination networks and
    20 random multicast networks at the sufficient alphabet size."""
    f3 = field_new(3)
    yield "butterfly-mu1-GF(3)", butterfly_network(f3), FMatrix(f3, [[1, 1]]), 1
    for n, M, mu, q in ((3, 6, 2, 25), (3, 6, 2, 32), (4, 5, 1, 16), (4, 6, 2, 81)):
        f = field_new(*prime_power_parts(q))
        yield (f"B({n},{M})-mu{mu}-GF({q})", combination_network(n, M, f),
               mds_parity_check(f, n - mu, n), mu)
    rng = random.Random(8)
    for i in range(20):
        n = rng.randint(2, 3)
        mu = rng.randint(1, n - 1)
        t = rng.randint(1, 3)
        net = random_multicast_network(rng, n, t, field_new(2))
        q = smallest_prime_power_at_least(alphabet_bound_general(len(net.edges), mu, t))
        f = field_new(*prime_power_parts(q))
        yield f"random{i}", _on_field(net, f), mds_parity_check(f, n - mu, n), mu


def _outputs(design):
    return {
        "locals": {eid: list(c) for eid, c in sorted(design.netcode.local.items())},
        "global": {eid: list(v) for eid, v in sorted(design.netcode.global_vectors.items())},
        "checks": design.certificate["checks"],
    }


def record():
    entries = []
    for name, net, H, mu in golden_instances():
        entry = {"name": name, "network": network_to_json(net),
                 "H": matrix_to_json(H), "mu": mu}
        entry.update(_outputs(secure_lif(net, net.n, mu, H)))
        entries.append(json.dumps(entry, sort_keys=True))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text('{"instances": [\n' + ",\n".join(entries) + "\n]}\n")


def forwarding_instances():
    """(name, network, H, mu) rich in forwarding (one-input) edges.  The
    relayed butterflies forward their coded edge CD down the chain DX, XY,
    YT1 (and YT2), to DZ, off every flow below CD, and on to ZW, whose only
    input DZ is off every flow.  The n = 1 chain's source out-edges forward a
    unit vector, one of them off every flow.  Every receiver in-edge of
    B(3,4) forwards a coded direction while security sets of size 1 exist."""
    for q in (3, 4):
        f = field_new(*prime_power_parts(q))
        net = Network("S A B C D X Y Z W T1 T2".split(),
                      [("SA", "S", "A"), ("SB", "S", "B"), ("AC", "A", "C"), ("BC", "B", "C"),
                       ("CD", "C", "D"), ("DX", "D", "X"), ("XY", "X", "Y"), ("YT1", "Y", "T1"),
                       ("YT2", "Y", "T2"), ("AT1", "A", "T1"), ("BT2", "B", "T2"),
                       ("DZ", "D", "Z"), ("ZW", "Z", "W")], "S", ("T1", "T2"), 2, f)
        yield f"relayed-butterfly-mu1-GF({q})", net, FMatrix(f, [[1, 1]]), 1
    f2 = field_new(2)
    net = Network("S A Y Z T".split(), [("SA", "S", "A"), ("SY", "S", "Y"), ("AT", "A", "T"),
                                        ("AZ", "A", "Z")], "S", ("T",), 1, f2)
    yield "chain-n1-mu0-GF(2)", net, FMatrix(f2, [[1]]), 0
    for q in (7, 8):
        f = field_new(*prime_power_parts(q))
        yield (f"B(3,4)-mu2-GF({q})", combination_network(3, 4, f),
               mds_parity_check(f, 1, 3), 2)


def _steps(net, H, mu):
    """[edge id, local, global, checks, dual bases] after each edge `lif.search` codes."""
    code = NetworkCode(net)
    return [[e.id, list(code.local[e.id]), list(code.global_vectors[e.id]), checks,
             {r: [list(row) for row in D] for r, D in dual.items()}]
            for e, dual, _, checks in lif.search(code, H, mu)]


def record_steps():
    entries = [json.dumps({"name": name, "network": network_to_json(net),
                           "H": matrix_to_json(H), "mu": mu, "steps": _steps(net, H, mu)},
                          sort_keys=True)
               for name, net, H, mu in forwarding_instances()]
    STEPS_PATH.write_text('{"instances": [\n' + ",\n".join(entries) + "\n]}\n")


if __name__ == "__main__":
    record()
    record_steps()

GOLDEN = json.loads(GOLDEN_PATH.read_text())["instances"]
STEPS = json.loads(STEPS_PATH.read_text())["instances"]


@pytest.mark.parametrize("entry", GOLDEN, ids=[e["name"] for e in GOLDEN])
def test_secure_lif_matches_golden_record(entry):
    net = network_from_json(entry["network"])
    design = secure_lif(net, net.n, entry["mu"], matrix_from_json(entry["H"]))
    want = {key: entry[key] for key in ("locals", "global", "checks")}
    assert _outputs(design) == want


def test_search_steps_through_forwarding_edges_match_record():
    """On `forwarding_instances`, `lif.search` yields after every edge the
    recorded local and global vectors, checks and receivers' dual bases,
    forwarding edges settled without a candidate search included.  The
    record covers each kind of forwarding edge: a chain of them, one off
    every flow below a coded edge, one whose only input is off every flow,
    and a source out-edge of an n = 1 network."""
    kinds = set()
    for entry in STEPS:
        net = network_from_json(entry["network"])
        got = _steps(net, matrix_from_json(entry["H"]), entry["mu"])
        assert got == entry["steps"], entry["name"]
        vectors = {eid: any(v) for eid, _, v, *_ in got}  # edge id -> nonzero
        for e in net.edges:
            ins = net.in_edges(e.tail)
            if e.tail == net.source:
                if net.n == 1:
                    kinds.add("n = 1 source")
            elif len(ins) == 1 and not vectors[e.id]:
                kinds.add("input off every flow" if not vectors[ins[0].id]
                          else "off every flow below a coded edge")
            elif len(ins) == 1 and len(net.in_edges(ins[0].tail)) == 1:
                kinds.add("chain")
    assert kinds == {"chain", "off every flow below a coded edge",
                     "input off every flow", "n = 1 source"}


@pytest.mark.parametrize("q", [3, 4])
def test_edges_on_no_flow_take_the_zero_vector_untested(q):
    """An edge on no flow carries the zero vector, local zeros of its input
    count, whatever its inputs: on a butterfly, CW mixes two inputs on a
    flow, DZ mixes CD, on a flow, with XD, off every flow, and XD, out of a
    node the source does not reach, has no input.  Each counts no test,
    gathers no security pairs and leaves the receivers' dual bases as they
    were."""
    f = field_new(*prime_power_parts(q))
    net = Network("S A B C D X W Z T1 T2".split(),
                  [("SA", "S", "A"), ("SB", "S", "B"), ("AC", "A", "C"), ("BC", "B", "C"),
                   ("CD", "C", "D"), ("DT1", "D", "T1"), ("DT2", "D", "T2"),
                   ("AT1", "A", "T1"), ("BT2", "B", "T2"), ("CW", "C", "W"),
                   ("XD", "X", "D"), ("DZ", "D", "Z")], "S", ("T1", "T2"), 2, f)
    on_flow = {eid for flow in net.edge_disjoint_flows().values()
               for path in flow.paths for eid in path}
    settled = {"CW": 2, "DZ": 2, "XD": 0}  # edge id -> input count
    assert not on_flow & set(settled) and "CD" in on_flow
    code = NetworkCode(net)
    before, seen = 0, {}
    dual = {r: list(FMatrix.identity(f, 2).data) for r in net.receivers}
    for e, after, security, checks in lif.search(code, FMatrix(f, [[1, 1]]), 1):
        after = {r: [tuple(row) for row in D] for r, D in after.items()}
        if e.id in settled:
            assert code.local[e.id] == (0,) * settled[e.id], e.id
            assert tuple(code.global_vectors[e.id]) == (0, 0), e.id
            assert (checks, security, after) == (before, None, dual), e.id
            seen[e.id] = len(code.inputs(e.id))
        before, dual = checks, after
    assert seen == settled


def _verdict_instances():
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1)):
        f = field_new(p, m)
        for rows in ([[1, 1]], [], [[1, 0], [0, 1]]):
            H = FMatrix(f, rows, 2)
            for mu in range(3 - H.rows):
                yield butterfly_network(f), H, mu
    rng = random.Random(88)
    for i in range(24):
        f = field_new(*((3, 1), (2, 2), (5, 1))[i % 3])
        mu = 1 + i % 2
        net = random_multicast_network(rng, 3, rng.randint(1, 3), f)
        yield net, mds_parity_check(f, 3 - mu, 3), mu


def _frontier(code, dual):
    """Each receiver's frontier, rebuilt from its flow and the coded edges:
    per path, the global vector of its last coded edge, or the path's unit
    vector before any.  Asserts that `dual` is its dual basis:
    frontier[r][j] . dual[r][i] = 1 if i == j, else 0."""
    f, n = code.field, code.n
    units = FMatrix.identity(f, n).data
    frontier = {r: [next((code.global_vectors[eid] for eid in reversed(path)
                          if eid in code.global_vectors), unit)
                    for path, unit in zip(flow.paths, units)]
                for r, flow in code.network.edge_disjoint_flows().items()}
    assert {r: [tuple(f.dot(row, b) for b in dual[r]) for row in rows]
            for r, rows in frontier.items()} == {r: list(units) for r in frontier}
    return frontier


def _search_steps(net, H, mu):
    """Drive secure_lif's search (`lif.search`) edge by edge and
    yield, per edge it reaches: (code, edge id, paths, frontier, forbidden,
    security, fresh).  Before the edge: the (receiver, path index) pairs it
    lies on, the receivers' frontiers, and a fresh enumeration of the
    security sets as (W, pair), every full-rank set of each size below mu by
    the plain edge-subset loop (`conftest.reference_walk`).  forbidden is
    the edge's pairs (inside, outside) of annihilator rows: the search's dual
    rows, then the pairs it gathered at the edge, or the fresh ones when it
    gathered none (security None).  `_frontier` checks the search's dual basis after
    every edge, forwarding edges included.  An edge with no valid vector
    (FieldTooSmall) is yielded uncoded and ends the run."""
    code = NetworkCode(net)
    on_path = {e.id: [] for e in net.edges}
    for r, flow in net.edge_disjoint_flows().items():
        for pi, path in enumerate(flow.paths):
            for eid in path:
                on_path[eid].append((r, pi))
    dual = {r: FMatrix.identity(net.field, net.n).data for r in net.receivers}
    steps = lif.search(code, H, mu)
    for e in net.topological_order:
        frontier = _frontier(code, dual)
        fresh = []
        for size in range(mu if H.rows else 0):
            for W, _ in reference_walk(H, code, size):
                C = code.coding_matrix(W)
                fresh.append((W, (kernel(H.stack(C)).data, kernel(C).data)))
        paths = on_path[e.id]
        receiving = [((dual[r][pi],), None) for r, pi in paths]
        try:
            coded, dual, security, _ = next(steps)
        except FieldTooSmall as exc:
            assert exc.edge == e.id
            yield code, e.id, paths, frontier, receiving + [p for _, p in fresh], None, fresh
            return
        assert coded is e
        pairs = fresh if security is None else security
        yield code, e.id, paths, frontier, receiving + [p for _, p in pairs], security, fresh
    _frontier(code, dual)


def test_forbidden_subspace_verdict_matches_rank_test():
    """At every edge secure_lif reaches, every candidate gets the same
    verdict, after the same number of checks, from the forbidden subspaces
    as from the rank test of the frontier and of each [H; C_W; v]."""
    compared = []
    for net, H, mu in _verdict_instances():
        for code, eid, paths, frontier, forbidden, _, fresh in _search_steps(net, H, mu):
            f, n = code.field, code.n
            sets = [(W, code.coding_matrix(W)) for W, _ in fresh]
            for cand in product(range(f.order), repeat=len(code.inputs(eid))):
                vec = combination(f, cand, code.inputs(eid), n)
                fails = [not any(f.dot(x, vec) for x in inside) and (
                             outside is None or any(f.dot(x, vec) for x in outside))
                         for inside, outside in forbidden]
                # secure_lif stops at the first forbidden subspace that holds vec
                checks = fails.index(True) + 1 if True in fails else len(fails)
                got = (True not in fails, checks)
                assert got == reference_candidate_verdict(H, frontier, paths, sets, vec)
                compared.append(got[0])
    assert True in compared and False in compared


def _search_instances():
    """`_verdict_instances`, then random multicast networks with n = 2..4 and
    a random mu < n over GF(2), GF(3), GF(4), GF(5), GF(7), GF(8) and GF(9)."""
    yield from _verdict_instances()
    rng = random.Random(9)
    for q in (2, 3, 4, 5, 7, 8, 9):
        f = field_new(*prime_power_parts(q))
        for i in range(6):
            n = 2 + i % 3
            mu = rng.randrange(n)
            # at most 12 edges: n = 4 fits two receivers, but three need 15
            net = random_multicast_network(rng, n, rng.randint(1, 2), f)
            yield net, mds_parity_check(f, n - mu, n), mu


def _line_instances():
    """Prime fields of 31 and more with mu = n - 1, where secure_lif solves
    for the last coefficient: random multicast networks with n = 2..3 and
    B(3,5) and B(4,5)."""
    rng = random.Random(31)
    for q in (31, 37, 41, 43):
        f = field_new(q)
        for i in range(4):
            n = 2 + i % 2
            net = random_multicast_network(rng, n, rng.randint(1, 3), f)
            yield net, mds_parity_check(f, 1, n), n - 1
    f = field_new(31)
    for n in (3, 4):
        yield combination_network(n, 5, f), FMatrix(f, [[1] * n]), n - 1


def test_pruned_search_picks_the_exhaustive_first_candidate():
    """At every edge secure_lif reaches, the prefix search picks the first
    candidate in product order that passes the full-vector test, and finds
    none exactly when exhaustive search finds none."""
    found = []
    for net, H, mu in _search_instances():
        for code, eid, _, _, forbidden, _, _ in _search_steps(net, H, mu):
            want = reference_first_candidate(code.field, code.inputs(eid), code.n, forbidden)
            assert code.local.get(eid) == want, eid
            found.append(want is not None)
    assert True in found and False in found


def test_line_solve_picks_the_exhaustive_first_candidate(monkeypatch):
    """Where the first vector of a line that passes the receivers fails a
    security pair, secure_lif solves for the rest of the line instead of
    scanning it; on `_line_instances` it does so, and the vector it picks at
    every edge is still the exhaustive first candidate."""
    solve, solved = lif.solve_line, []

    def counted(*args):
        c = solve(*args)
        solved.append(c)
        return c

    monkeypatch.setattr(lif, "solve_line", counted)
    for net, H, mu in _line_instances():
        for code, eid, _, _, forbidden, _, _ in _search_steps(net, H, mu):
            want = reference_first_candidate(code.field, code.inputs(eid), code.n, forbidden)
            assert want is not None and code.local[eid] == want, eid
    assert [c for c in solved if c is not None]


def test_line_solve_matches_a_scan_of_the_line():
    """`lif.solve_line` picks the first c of its range for which
    vec + c u lies in no forbidden set, as a scan of the line does, and
    counts at most one check per pair.  Random pairs over GF(7), GF(8) and
    GF(9), some without an exemption (receivers), on lines through a point
    of an exempt span B, inside a span A, or at random; both the first two
    decide some answers."""
    rng = random.Random(13)
    decided = set()
    for q in (7, 8, 9):
        f, n = field_new(*prime_power_parts(q)), 4

        def spanned(rows):  # a random vector of the span of rows
            return combination(f, [rng.randrange(q) for _ in rows], rows, n)

        def rows(k):
            return [[rng.randrange(q) for _ in range(n)] for _ in range(k)]

        def annihilator(span):
            return kernel(FMatrix(f, span, n)).data

        def forbids(pair, w):
            inside, outside = pair
            return not any(f.dot(x, w) for x in inside) and (
                outside is None or any(f.dot(x, w) for x in outside))

        for _ in range(300):
            spans = []
            for _ in range(rng.randint(1, 4)):
                B = rows(rng.randint(1, 2))
                spans.append((B + rows(rng.randint(0, 2)), None if rng.random() < 0.3 else B))
            pairs = [(annihilator(A), B and annihilator(B)) for A, B in spans]
            A, B = spans[0]
            kind = rng.choice(("through B", "inside A", "random"))
            u = spanned(A) if kind == "inside A" else rows(1)[0]
            if kind == "through B":
                vec = f.axpy(f.neg(rng.randrange(q)), u, spanned(B or A))
            else:
                vec = spanned(A) if kind == "inside A" else rows(1)[0]
            values = range(rng.randrange(q), q)
            want = next((c for c in values
                         if not any(forbids(pair, f.axpy(c, u, vec)) for pair in pairs)), None)
            counted = []
            assert lif.solve_line(f, vec, u, pairs, values,
                                  counted.append) == want, (q, kind)
            assert len(counted) <= len(pairs)
            if want is not None:  # the answer lies in a span A, exempt by its B
                w = f.axpy(want, u, vec)
                if any(not any(f.dot(x, w) for x in inside)
                       for inside, outside in pairs if outside is not None):
                    decided.add("an exempt point")
                if kind == "inside A" and B is not None:
                    decided.add("a line inside A")
    assert decided == {"an exempt point", "a line inside A"}


def test_cached_security_pairs_equal_a_fresh_enumeration():
    """The security pairs secure_lif extends edge by edge are, at every edge
    that gathers them, those a fresh plain edge-subset loop gives
    (`conftest.reference_walk`), in the same order."""
    sizes = set()
    for net, H, mu in _search_instances():
        for *_, security, fresh in _search_steps(net, H, mu):
            if security is not None:
                assert security == fresh
                sizes.update(len(W) for W, _ in security)
    assert sizes == {0, 1, 2}


def test_secure_lif_walks_point_sets_once(monkeypatch):
    """secure_lif grows its security sets from the bases it holds: the only
    point-set walk of a run is the final verification, on the butterfly and
    on B(4,10) with mu = 2 over GF(23) (850 edges, 5,526 checks)."""
    walk, calls = securecode.full_rank_observations, []

    def counted(*args, **kwargs):
        calls.append(args[3])
        return walk(*args, **kwargs)

    monkeypatch.setattr(securecode, "full_rank_observations", counted)
    f3, f23 = field_new(3), field_new(23)
    for net, H, mu, checks in (
            (butterfly_network(f3), FMatrix(f3, [[1, 1]]), 1, None),
            (combination_network(4, 10, f23), mds_parity_check(f23, 2, 4), 2, 5526)):
        calls.clear()
        design = secure_lif(net, net.n, mu, H)
        assert calls == [range(1, mu + 1)]
        assert checks in (None, design.certificate["checks"])


def test_a_reused_network_builds_as_a_freshly_loaded_copy():
    """A Network decomposes its flows once, on first use, and every build on
    it reads that decomposition.  One Network, reused for builds with another
    H, another mu, the same call twice, and after a caller has cleared or
    edited what `edge_disjoint_flows` returned, gives each time the locals,
    globals and checks of a build on a freshly loaded copy; on the butterfly
    and on B(4,10) (210 receivers) over GF(23)."""
    f3, f23 = field_new(3), field_new(23)
    ones = FMatrix(f23, [[1] * 4])
    for net, builds in (
            (butterfly_network(f3), [(FMatrix(f3, [[1, 1]]), 1), (FMatrix(f3, [[1, 2]]), 1),
                                     (FMatrix(f3, [], 2), 0), (FMatrix(f3, [[1, 1]]), 1)]),
            (combination_network(4, 10, f23),
             [(mds_parity_check(f23, 2, 4), 2), (ones, 2), (mds_parity_check(f23, 3, 4), 1),
              (ones, 3), (mds_parity_check(f23, 2, 4), 2)])):
        fresh = network_from_json(network_to_json(net)).edge_disjoint_flows()
        for i, (H, mu) in enumerate(builds):
            flows = net.edge_disjoint_flows()
            assert flows == fresh
            first, *rest = flows
            with pytest.raises(AttributeError):
                flows[first].paths = ()
            if i == 0:  # edited before any build has read the flows
                flows[first] = flows[first]._replace(paths=flows[first].paths[::-1])
                del flows[rest[0]]
            else:
                flows.clear()
            design = secure_lif(net, net.n, mu, H)
            copy = network_from_json(network_to_json(net))
            assert _outputs(design) == _outputs(secure_lif(copy, copy.n, mu, H))
        assert net.edge_disjoint_flows() == fresh


def _build(net, mu, H):
    """A build's outputs, or its refusal when no vector passes an edge."""
    try:
        return _outputs(secure_lif(net, net.n, mu, H))
    except FieldTooSmall as exc:
        return str(exc)


@pytest.mark.parametrize("q", [2, 3, 4, 7, 9])
def test_a_reused_h_builds_as_a_fresh_copy(q):
    """H keeps its reduced form and kernel once made.  Builds with one H
    object, first cold, then after a CosetCode, the oracle and (square H, at
    mu = 0) an inverse have read those forms, and again, each give the
    locals, globals and checks, or the refusal, of a build with a fresh
    value-equal copy of H."""
    f, rng = field_new(*prime_power_parts(q)), random.Random(1700 + q)
    built = set()
    for i in range(8):
        n = rng.randint(2, 3)
        net = random_multicast_network(rng, n, rng.randint(1, 2), f)
        k = n if i == 0 else rng.randint(1, n - 1)
        H = random_full_rank_matrix(rng, f, k, n)
        want = _build(net, n - k, FMatrix(f, H.data, n))
        assert _build(net, n - k, H) == want
        CosetCode(H)
        CosetChannelOracle(H, secure_lif(net, n, 0, FMatrix(f, [], n)).netcode)
        if k == n:
            H.invert()
        assert _build(net, n - k, H) == want
        assert _build(net, n - k, H) == want
        built.add((k == n, isinstance(want, dict)))
    assert (True, True) in built and (False, True) in built


def test_repeated_uses_of_one_h_reduce_it_once(monkeypatch):
    """Repeated CosetCode(H), secure_lif and invert calls on one H object
    reduce it once (`FMatrix._echelon`), the first time any of them reads
    its forms; a value-equal copy is another object, reduced once too."""
    reduced, real = [], FMatrix._echelon

    def counted(self):
        reduced.append(self)
        return real(self)

    monkeypatch.setattr(FMatrix, "_echelon", counted)
    f = field_new(7)
    net = butterfly_network(f)
    H, square = FMatrix(f, [[1, 2]]), FMatrix(f, [[1, 2], [3, 4]])
    for _ in range(3):
        secure_lif(net, 2, 1, H)
        CosetCode(H)
        square.invert()
        CosetCode(square)
        secure_lif(net, 2, 0, square)
    copy = FMatrix(f, H.data, 2)
    for _ in range(2):
        secure_lif(net, 2, 1, copy)
    assert list(map(id, reduced)) == [id(H), id(square), id(copy)]


def test_root_pair_is_h_kernel_and_the_unit_vectors():
    """The root security pair (W empty) the search gathers at its first edge
    is H's canonical kernel, as `null_space` of `back_substitute` of
    `echelon(H)` gives it, and the unit vectors, on seeded full-rank H of
    every height below n over five fields."""
    rng, seen = random.Random(29), 0
    for q in (2, 3, 4, 7, 9):
        f = field_new(*prime_power_parts(q))
        for n, k in ((2, 1), (3, 1), (3, 2), (4, 2), (4, 3)):
            H = random_full_rank_matrix(rng, f, k, n)
            net = combination_network(n, n + 1, f)
            first = next(lif.search(NetworkCode(net), H, n - k))
            (W, pair), *_ = first[2]
            units = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            want = null_space(f, *back_substitute(f, echelon(f, H.data)), n)
            assert (W, pair) == ((), (want, units)) and pair[0] == H.kernel
            seen += 1
    assert seen == 25


@pytest.mark.parametrize("n, t", [(4, 3), (5, 1)])
def test_random_multicast_network_refuses_parameters_no_draw_fits(n, t):
    """n = 4 with three receivers needs at least 15 edges, over max_edges =
    12, and n = 5 needs 4 intermediate nodes of at most 3; both raise before
    the first draw (the rng is None) instead of retrying forever."""
    with pytest.raises(ValueError, match="no draw fits"):
        random_multicast_network(None, n, t, field_new(2))
