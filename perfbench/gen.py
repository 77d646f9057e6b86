"""Seeded instance generators for the benchmark.

The benchmark carries its own generators, so edits to the test suite never
shift its workloads.  Every instance is produced as plain JSON in the
program's interchange format (see `wiretapnc.serialize`); the program sees
only these files.  All arithmetic here is plain integer arithmetic: matrices
that need elimination are over prime fields, and extension-field instances
use parity checks whose rank is known by construction.
"""

from __future__ import annotations

from itertools import combinations
from math import comb


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def prime_power_parts(q):
    """(p, m) with p^m = q, or None when q is not a prime power."""
    for p in range(2, q + 1):
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            return (p, m) if q == 1 and is_prime(p) else None
    return None


def smallest_prime_power_at_least(n):
    q = max(n, 2)
    while prime_power_parts(q) is None:
        q += 1
    return q


def smallest_prime_at_least(n):
    q = max(n, 2)
    while not is_prime(q):
        q += 1
    return q


def alphabet_bound(num_edges, mu, t):
    """The paper's sufficient field size C(|E|-1, mu-1) + t."""
    return comb(num_edges - 1, mu - 1) + t


# ---- linear algebra over GF(p), p prime ----

def rank_mod_p(rows, p):
    work = [list(r) for r in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(work)) if work[i][c] % p), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = pow(work[rank][c], p - 2, p)
        work[rank] = [x * inv % p for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][c] % p:
                fac = work[i][c]
                work[i] = [(x - fac * y) % p for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def inverse_mod_p(rows, p):
    n = len(rows)
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if work[i][c] % p)
        work[c], work[pivot] = work[pivot], work[c]
        inv = pow(work[c][c], p - 2, p)
        work[c] = [x * inv % p for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                fac = work[i][c]
                work[i] = [(x - fac * y) % p for x, y in zip(work[i], work[c])]
    return [r[n:] for r in work]


def matmul_mod_p(A, B, p):
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*B)] for row in A]


def random_invertible_mod_p(rng, n, p):
    while True:
        M = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        if rank_mod_p(M, p) == n:
            return M


# ---- JSON builders in the program's interchange format ----

def field_json(q):
    p, m = prime_power_parts(q)
    return {"p": p, "m": m}


def matrix_json(q, rows, cols):
    return {"field": field_json(q), "rows": [list(r) for r in rows], "cols": cols}


def network_json(nodes, edges, receivers, n, q):
    return {
        "nodes": list(nodes),
        "edges": [{"id": e, "tail": t, "head": h} for e, t, h in edges],
        "source": "S",
        "receivers": list(receivers),
        "n": n,
        "field": field_json(q),
    }


def mds_parity_check(k, n):
    """A k x n MDS parity check valid over every field: the all-ones row for
    k = 1, [I | 1] for k = n - 1, the identity for k = n."""
    if k == n:
        return [[int(i == j) for j in range(n)] for i in range(n)]
    if k == n - 1:
        return [[int(i == j) for j in range(n - 1)] + [1] for i in range(n - 1)]
    if k == 1:
        return [[1] * n]
    raise ValueError(f"no closed-form MDS parity check for k={k}, n={n}")


# ---- network families ----

def combination_edges(n, M):
    """B(n, M) in the node and edge naming of `wiretapnc.combination_network`."""
    nodes = ["S"] + [f"m{i}" for i in range(M)]
    edges = [(f"Sm{i}", "S", f"m{i}") for i in range(M)]
    receivers = []
    for idx, subset in enumerate(combinations(range(M), n)):
        r = f"r{idx}"
        nodes.append(r)
        receivers.append(r)
        edges += [(f"m{i}r{idx}", f"m{i}", r) for i in subset]
    return nodes, edges, receivers


def random_multicast(rng, n, t, num_mid):
    """Random layered multicast network with min-cut >= n to each receiver.

    Each of the t receivers gets n in-edges from distinct tails among the
    source and the num_mid intermediate nodes, and each intermediate node has
    its own source edge, which guarantees the cut.  The edge count
    num_mid + n t is fixed, so the alphabet bound is too.
    Returns (nodes, edges, receivers).
    """
    mids = [f"m{i}" for i in range(num_mid)]
    nodes = ["S"] + mids
    edges = [(f"Sm{i}", "S", m) for i, m in enumerate(mids)]
    receivers = []
    for r in range(t):
        rname = f"r{r}"
        nodes.append(rname)
        receivers.append(rname)
        for tail in rng.sample(["S"] + mids, n):
            edges.append((f"{tail}_{rname}", tail, rname))
    return nodes, edges, receivers


def random_coded_network(rng, q, n, num_mid, num_edges):
    """A random acyclic network with random local coefficients over GF(q).

    Returns (network_json, local coefficients by edge id).
    """
    mids = [f"v{i}" for i in range(num_mid)]
    nodes = ["S"] + mids + ["T"]
    edges = []
    for i in range(num_edges):
        ti = rng.randint(-1, num_mid - 1) if num_mid else -1
        if ti < 0:
            tail, head = "S", (rng.choice(mids) if mids else "T")
        else:
            tail, head = f"v{ti}", rng.choice(mids[ti + 1:] + ["T"])
        edges.append((f"e{i:02d}", tail, head))
    in_degree = {v: 0 for v in nodes}
    for _, _, head in edges:
        in_degree[head] += 1
    local = {
        eid: [rng.randrange(q) for _ in range(n if tail == "S" else in_degree[tail])]
        for eid, tail, _ in edges
    }
    return network_json(nodes, edges, (), n, q), local


def design_json(net, local, H, mu, k, n):
    """A design file; the program propagates the global vectors on loading."""
    return {
        "network": net,
        "code": {"local": local, "global": {}},
        "H": H,
        "params": {"mu": mu, "k": k, "n": n, "restricted": None},
        "certificate": {},
    }


def combination_design(n, M, p, k, A):
    """The Reed-Solomon design of `wiretapnc.combination_secure_design` for
    B(n, M) over the prime field GF(p), in a changed basis: H A and source
    vectors g A for an invertible n x n matrix A.

    Every rank [H; C_W] is unchanged by the basis change, so Delta(mu) and
    every secrecy verdict equal those of the unchanged design, while the
    matrices the program eliminates differ from seed to seed.
    """
    alpha = next(a for a in range(2, p) if all(
        pow(a, (p - 1) // r, p) != 1 for r in range(2, p) if (p - 1) % r == 0 and is_prime(r)))
    Ht = [[pow(alpha, (i + 1) * j, p) for i in range(n)] for j in range(M + k)]
    Ht = matmul_mod_p(Ht, A, p)
    nodes, edges, receivers = combination_edges(n, M)
    local = {f"Sm{i}": Ht[k + i] for i in range(M)}
    for eid, tail, _ in edges:
        if tail != "S":
            local[eid] = [1]
    net = network_json(nodes, edges, receivers, n, p)
    return design_json(net, local, matrix_json(p, Ht[:k], n), n - k, k, n)


def butterfly_design(secure):
    """The butterfly over GF(3) with H = [1 1]; node B mixes with (1, 2) in
    the secure variant and with (1, 1) in the insecure one."""
    edges = [("SA", "S", "A"), ("SC", "S", "C"), ("AB", "A", "B"), ("CB", "C", "B"),
             ("AD", "A", "D"), ("CF", "C", "F"), ("BE", "B", "E"), ("ED", "E", "D"),
             ("EF", "E", "F")]
    local = {"SA": [1, 0], "SC": [0, 1], "AB": [1], "AD": [1], "CB": [1],
             "CF": [1], "BE": [1, 2] if secure else [1, 1], "ED": [1], "EF": [1]}
    net = network_json("SABCDEF", edges, ("D", "F"), 2, 3)
    return design_json(net, local, matrix_json(3, [[1, 1]], 2), 1, 1, 2)
