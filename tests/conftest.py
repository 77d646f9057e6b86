"""Shared fixtures and random-instance generators for the test suite."""

import math
import random
from collections import Counter, deque
from itertools import combinations, product

import pytest

from wiretapnc.coset import CosetCode
from wiretapnc.exceptions import InsufficientCut
from wiretapnc.fmatrix import FMatrix, back_substitute, combination, echelon, null_space
from wiretapnc.gf import field_new, is_prime
from wiretapnc.netgraph import Network, NetworkCode
from wiretapnc.securecode import wiretappable_edges


@pytest.fixture(scope="session")
def gf2():
    return field_new(2)


@pytest.fixture(scope="session")
def gf3():
    return field_new(3)


@pytest.fixture(scope="session")
def gf7():
    return field_new(7)


def smallest_prime_power_at_least(n):
    v = max(n, 2)
    while True:
        m = v
        for p in range(2, v + 1):
            if m % p == 0:
                while m % p == 0:
                    m //= p
                break
        if m == 1:
            return v
        v += 1


def prime_power_parts(q):
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            assert q == 1 and is_prime(p)
            return p, m
    raise ValueError(q)


def random_full_rank_matrix(rng, field, rows, cols):
    while True:
        M = FMatrix(
            field,
            [[rng.randrange(field.order) for _ in range(cols)] for _ in range(rows)],
            cols,
        )
        if M.rank() == rows:
            return M


def matmul(A, B):
    """The product A B, one `combination` of B's rows per row of A."""
    f = A.field
    return FMatrix(f, [combination(f, row, B.data, B.cols) for row in A.data], B.cols)


def row_space(M):
    """The nonzero rows of M's reduced echelon form: the canonical basis of
    its row space."""
    return FMatrix(M.field, back_substitute(M.field, echelon(M.field, M.data))[0], M.cols)


def kernel(M):
    """The reduced-echelon canonical basis of M's right kernel."""
    f = M.field
    return FMatrix(f, null_space(f, *back_substitute(f, echelon(f, M.data)), M.cols), M.cols)


def complete_to_invertible(C):
    """Rows extending C's rows to a basis of the full space.

    The kernel basis is preferred (the textbook completion), but over a finite
    field a code can intersect its own dual, making [C; kernel] singular; in
    that case unit vectors are added greedily instead.  The equivocation
    formula is completion-independent, so either choice is valid.
    """
    n = C.cols
    K = kernel(C)
    if C.stack(K).rank() == n:
        return K
    rows = [list(r) for r in C.data]
    added = []
    rank = C.rows
    for i in range(n):
        unit = [1 if j == i else 0 for j in range(n)]
        cand = FMatrix(C.field, rows + added + [unit], n)
        if cand.rank() > rank:
            added.append(unit)
            rank += 1
            if rank == n:
                break
    return FMatrix(C.field, added, n)


def inverse_and_select_equivocation(H, C):
    """The paper's form of H(S | Z_W) for a full-rank C (r x n): the rank of
    H [C; completion]^-1 restricted to its last n - r columns."""
    n, r = C.cols, C.rows
    HA = matmul(H, C.stack(complete_to_invertible(C)).invert())
    return HA.submatrix_columns(range(r, n)).rank()


def reference_outcomes(H, code):
    """(secret, payloads) of every (secret, randomness) pair, by the plain
    encoder: `encode_with_randomness`, then the network code's `payloads`."""
    coset = CosetCode(H)
    q, k, n = H.field.order, coset.k, coset.n
    return [(s, code.payloads(coset.encode_with_randomness(list(s), list(r))))
            for s in product(range(q), repeat=k) for r in product(range(q), repeat=n - k)]


def reference_entropy_terms(H, code, W, outcomes=None):
    """The oracle's four entropy terms by the plain per-outcome loop: encode
    every (secret, randomness) pair (`reference_outcomes`, or `outcomes` when
    given) and count (S, Z_W) in dicts.  Exact integer counts; only the
    final logarithms are floats."""
    q, n = H.field.order, H.cols
    z_counts, sz_counts = Counter(), Counter()
    for s, payloads in reference_outcomes(H, code) if outcomes is None else outcomes:
        z = tuple(payloads[eid] for eid in W)
        z_counts[z] += 1
        sz_counts[s, z] += 1
    total = q ** n

    def entropy(counts):
        acc = sum(c * math.log(c) for c in counts.values())
        return (math.log(total) - acc / total) / math.log(q)

    h_z, h_sz = entropy(z_counts), entropy(sz_counts)
    return {"H(S|Z)": h_sz - h_z, "H(Y|Z)": n - h_z, "H(Y|SZ)": n - h_sz,
            "H(Z)": h_z}


def reference_min_equivocation_bruteforce(H, code, mu, restricted=None):
    """Delta(mu) and witness by the per-observation loop: H(S | Z_W) of
    each W of size mu in `combinations` order by `reference_entropy_terms`,
    keeping the first minimiser and stopping at the first zero."""
    edges = wiretappable_edges(code, restricted)
    if mu == 0:
        return H.rows, ()
    outcomes = reference_outcomes(H, code)
    best, witness = None, None
    for W in combinations(edges, mu):
        value = reference_entropy_terms(H, code, W, outcomes)["H(S|Z)"]
        if abs(value - round(value)) > 1e-9:
            raise AssertionError(f"H(S|Z) of W={W} is {value}, not an integer")
        if best is None or round(value) < best:
            best, witness = round(value), W
            if best == 0:
                break
    return best, witness


def observation_equivocation(H, C, r=None):
    """Exact H(S | Z_W) in q-ary symbols from built matrices: rank [H; C] -
    rank C, with `r` the rank of C when the caller knows it.  Y is uniform
    on F_q^n, so (S, Z_W) = [H; C] Y and Z_W = C Y are uniform on the images
    of [H; C] and C, and H(S | Z_W) = H(S, Z_W) - H(Z_W) is the rank
    difference: the formula the package's point-set walk computes."""
    return H.stack(C).rank() - (C.rank() if r is None else r)


def reference_equivocation_rank(H, code, mu, restricted=None):
    """Delta(mu), witness and flag by the plain loop over every edge subset
    of size mu: the first minimiser, in lexicographic order, among the
    subsets whose coding matrix has the largest rank."""
    edges = wiretappable_edges(code, restricted)
    if mu == 0:
        return H.rows, (), False
    top = min(mu, code.n)
    best_r, best, witness = -1, None, None
    for W in combinations(edges, mu):
        C = code.coding_matrix(W)
        r = C.rank()
        if r < best_r:
            continue
        d = observation_equivocation(H, C, r)
        if r > best_r or d < best:
            best_r, best, witness = r, d, W
            if r == top and d == 0:
                break
    return best, witness, best_r < mu


def reference_first_violation(H, code, sizes, restricted=None, G=None):
    """(ok, witness) of the secrecy condition by the plain loop over every
    edge subset: the first full-rank W, sizes in the given order and then
    lexicographic, with rank [H; C_W G] != k + |W| (G = I when None)."""
    edges = wiretappable_edges(code, restricted)
    for size in sizes:
        for W in combinations(edges, size):
            C = code.coding_matrix(W)
            if C.rank() != size:
                continue
            if G is not None:
                C = matmul(C, G)
            if observation_equivocation(H, C, size) != H.rows:
                return False, W
    return True, None


def reference_candidate_verdict(H, frontier, paths, security_sets, vec):
    """secure_lif's candidate test by ranks, as (accepted, checks run): for
    each (receiver r, path pi) in `paths`, r's frontier with row pi replaced
    by vec stays invertible; then, when H has rows, each (W, C_W) in
    `security_sets` with vec outside span C_W keeps
    rank [H; C_W; vec] - rank [C_W; vec] = k."""
    f, n = H.field, H.cols
    checks = 0
    for r, pi in paths:
        checks += 1
        rows = [vec if i == pi else row for i, row in enumerate(frontier[r])]
        if FMatrix(f, rows, n).rank() != n:
            return False, checks
    if H.rows:
        v = FMatrix(f, [vec], n)
        for _, C in security_sets:
            checks += 1
            CW = C.stack(v)
            r = CW.rank()
            if r == C.rows + 1 and observation_equivocation(H, CW, r) != H.rows:
                return False, checks
    return True, checks


def reference_first_candidate(field, inputs, n, forbidden):
    """The exhaustive form of secure_lif's search: the first coefficient
    vector in product order whose combination of `inputs` lies in no
    forbidden subspace (pairs (inside, outside) of annihilator rows of a span
    and of its exemption, outside None for none, as `lif.search`
    describes them), or None if none does."""
    for cand in product(range(field.order), repeat=len(inputs)):
        vec = combination(field, cand, inputs, n)
        if not any(not any(field.dot(x, vec) for x in inside) and (
                       outside is None or any(field.dot(x, vec) for x in outside))
                   for inside, outside in forbidden):
            return cand
    return None


def random_coded_instance(rng, q=None, n=None, k=None, max_edges=10):
    """A random acyclic network with a random (not necessarily feasible)
    linear code and a random full-rank k x n coset matrix H.

    Receivers are not needed for equivocation analysis, so none are attached.
    """
    q = q if q is not None else rng.choice((2, 3, 5, 7))
    n = n if n is not None else rng.randint(2, 4)
    k = k if k is not None else rng.randint(1, min(3, n))
    field = field_new(*prime_power_parts(q))
    num_mid = rng.randint(0, 4)
    nodes = ["S"] + [f"v{i}" for i in range(num_mid)]
    num_edges = rng.randint(max(n, 3), max_edges)
    edges = []
    for i in range(num_edges):
        if num_mid == 0:
            tail = "S"
        else:
            ti = rng.randint(-1, num_mid - 1)
            tail = "S" if ti < 0 else f"v{ti}"
        if tail == "S":
            head_choices = [f"v{i}" for i in range(num_mid)] or ["S"]
            if not num_mid:
                # no intermediate nodes: hang edges on a sink
                if "T" not in nodes:
                    nodes.append("T")
                head = "T"
            else:
                head = rng.choice(head_choices)
        else:
            ti = int(tail[1:])
            later = [f"v{i}" for i in range(ti + 1, num_mid)]
            if "T" not in nodes:
                nodes.append("T")
            head = rng.choice(later + ["T"])
        edges.append((f"e{i:02d}", tail, head))
    net = Network(nodes, edges, "S", (), n, field)
    code = NetworkCode(net)
    for e in net.topological_order:
        deg = n if e.tail == "S" else len(net.in_edges(e.tail))
        code.set_local(e.id, [rng.randrange(q) for _ in range(deg)])
    code.propagate()
    H = random_full_rank_matrix(rng, field, k, n)
    return net, code, H


def fan_instance(rng, field, M, n, k):
    """The fan code S -> v_i -> R, i < M: branch i carries one random source
    vector on both of its edges, Sv<i> and v<i>R (so zero and parallel
    vectors occur), with a random full-rank k x n coset matrix H."""
    nodes = ["S", "R"] + [f"v{i}" for i in range(M)]
    edges = [(f"Sv{i}", "S", f"v{i}") for i in range(M)]
    edges += [(f"v{i}R", f"v{i}", "R") for i in range(M)]
    code = NetworkCode(Network(nodes, edges, "S", (), n, field))
    for i in range(M):
        code.set_local(f"Sv{i}", [rng.randrange(field.order) for _ in range(n)])
        code.set_local(f"v{i}R", [1])
    code.propagate()
    return code, random_full_rank_matrix(rng, field, k, n)


def random_multicast_network(rng, n, t, field, max_edges=12):
    """Random layered multicast network with min-cut >= n to each receiver.

    Each receiver gets n in-edges with pairwise distinct tails, and each
    intermediate node gets its own source edge, which guarantees the cut.
    A draw has at most 3 intermediate nodes and at least (n - 1) + t * n
    edges; parameters that no draw can meet raise ValueError before any draw.
    """
    fewest = max(n - 1, 0) + t * n
    if n - 1 > 3 or fewest > max_edges:
        raise ValueError(f"no draw fits n={n}, t={t}: it needs {max(n - 1, 0)} of at most 3 "
                         f"intermediate nodes and {fewest} edges, max_edges={max_edges}")
    while True:
        num_mid = rng.randint(0, 3)
        mids = [f"m{i}" for i in range(num_mid)]
        nodes = ["S"] + mids
        edges = [(f"Sm{i}", "S", m) for i, m in enumerate(mids)]
        ok = True
        for r in range(t):
            rname = f"r{r}"
            nodes.append(rname)
            tails = ["S"] + mids
            if len(tails) < n:
                ok = False
                break
            chosen = rng.sample(tails, n)
            for tail in chosen:
                edges.append((f"{tail}_{rname}", tail, rname))
        if not ok or len(edges) > max_edges:
            continue
        receivers = [f"r{r}" for r in range(t)]
        try:
            return Network(nodes, edges, "S", receivers, n, field)
        except InsufficientCut:
            continue


def reference_flows(net):
    """{receiver: (max-flow value, n edge-disjoint paths)}, found without the
    flows `net` stored: augmenting paths by BFS with the flow kept as a 0/1
    map over every edge, then paths walked out of the source along the first
    unused flow edge.  `Network` must find the same flows and paths."""
    out = {v: [] for v in net.nodes}
    into = {v: [] for v in net.nodes}
    for e in net.edges:
        out[e.tail].append(e)
        into[e.head].append(e)
    result = {}
    for r in net.receivers:
        flow = {e.id: 0 for e in net.edges}
        value = 0
        while True:
            prev = {net.source: None}
            queue = deque([net.source])
            while queue and r not in prev:
                v = queue.popleft()
                for e in out[v]:
                    if flow[e.id] == 0 and e.head not in prev:
                        prev[e.head] = (e, +1)
                        queue.append(e.head)
                for e in into[v]:
                    if flow[e.id] == 1 and e.tail not in prev:
                        prev[e.tail] = (e, -1)
                        queue.append(e.tail)
            if r not in prev:
                break
            v = r
            while v != net.source:
                e, direction = prev[v]
                flow[e.id] += direction
                v = e.head if direction < 0 else e.tail
            value += 1
        used = {eid for eid, fl in flow.items() if fl == 1}
        paths = []
        for _ in range(net.n):
            path, v = [], net.source
            while v != r:
                step = next(e for e in out[v] if e.id in used)
                used.discard(step.id)
                path.append(step.id)
                v = step.head
            paths.append(tuple(path))
        result[r] = (value, tuple(paths))
    return result


def mds_parity_check(field, k, n):
    """A k x n MDS parity check matrix over the given field."""
    from wiretapnc.coset import is_mds_parity_check, rs_parity_check

    if k == 0:
        return FMatrix(field, [], n)
    if k == n:
        return FMatrix.identity(field, n)
    if k == 1:
        return FMatrix(field, [[1] * n])
    if k == n - 1:
        rows = [[1 if j == i else 0 for j in range(n - 1)] + [1] for i in range(n - 1)]
        return FMatrix(field, rows)
    H = rs_parity_check(k, n, field)
    ok, _ = is_mds_parity_check(H)
    assert ok
    return H


@pytest.fixture
def rng():
    return random.Random(20260826)
