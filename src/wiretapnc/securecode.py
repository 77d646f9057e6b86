"""Construction and verification of secure network codes.

The central condition: a coset code with parity check H (k x n, k = n - mu)
stays perfectly secret on a network iff rank [H; C_W] = k + |W| for every
full-rank observation C_W of at most mu edges.  `observation_equivocation`
is the one place that computes rank [H; C_W] - rank C_W; every verification
(`verify_secrecy_condition` is exhaustive) and every equivocation goes
through it, over the one enumeration, `full_rank_observations`: both depend
on C_W only through its row space, so it ranges over sets of distinct
coding-vector directions (projective points), each named by its points'
first edges, so every witness is the one an edge-subset search in
lexicographic order finds.  `secure_lif` (Linear Information Flow with
security invariants) tests candidates by the containment form of the
condition: a new vector must leave span [H; C_W] unless it lies in span
C_W.  The rest covers alphabet bounds, the combination network design, the
Cai-Yeung equivalence, and the Byzantine cascade condition.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .coset import CosetCode, rs_parity_check
from .exceptions import (
    BadBudgets,
    BadParameters,
    BudgetExceedsCut,
    ComplexityCapExceeded,
    DimensionMismatch,
    FieldMismatch,
    FieldTooSmall,
    InvariantViolated,
    SingularMatrix,
)
from .fmatrix import FMatrix, combination, dot
from .gf import FieldSpec
from .netgraph import Network, NetworkCode, combination_network

SUBSET_CHECK_CAP = 10 ** 7


class SecurityParams:
    __slots__ = ("mu", "k", "n", "restricted_edges")

    def __init__(self, mu: int, k: int, n: int, restricted_edges: tuple | None = None):
        self.mu, self.k, self.n, self.restricted_edges = mu, k, n, restricted_edges


class SecureDesign:
    __slots__ = ("coset", "netcode", "params", "certificate")

    def __init__(self, coset: CosetCode, netcode: NetworkCode, params: SecurityParams,
                 certificate: dict | None = None):
        self.coset, self.netcode, self.params = coset, netcode, params
        self.certificate = {} if certificate is None else certificate

    @property
    def network(self):
        return self.netcode.network


def wiretappable_edges(code: NetworkCode, restricted=None):
    """Edge ids open to the wiretapper, in sorted (enumeration) order."""
    ids = sorted(e.id for e in code.network.edges)
    if restricted is None:
        return ids
    restricted = set(restricted)
    unknown = restricted - set(ids)
    if unknown:
        raise DimensionMismatch(f"restricted set names unknown edges {sorted(unknown)}")
    return [eid for eid in ids if eid in restricted]


def observation_equivocation(H: FMatrix, C: FMatrix, r: int | None = None) -> int:
    """Exact H(S | Z_W) in q-ary symbols: rank [H; C] - rank C.

    Y is uniform on F_q^n, so (S, Z_W) = [H; C] Y and Z_W = C Y are uniform
    on the images of [H; C] and C, and H(S | Z_W) = H(S, Z_W) - H(Z_W) is
    the rank difference.  For full-rank C_W the secrecy condition
    rank [H; C_W] = k + |W| says exactly that this equals k.  `r` is the
    rank to subtract: C.rank() unless the caller already knows it.
    """
    return H.stack(C).rank() - (C.rank() if r is None else r)


def check_budget(mu: int, name: str = "mu"):
    """Refuse a negative wiretap budget."""
    if mu < 0:
        raise BadBudgets(f"{name}={mu} must be non-negative")


def full_rank_observations(code: NetworkCode, edges, sizes, newest=False):
    """Yield (W, C_W) for each set W of distinct coding-vector directions of
    the given sizes whose C_W has full rank |W|, in lexicographic order
    within each size.  A direction is a nonzero global vector scaled to a
    leading 1, and W names the first edge of `edges` on each direction.
    With `newest`, only the sets holding the last edge, if its direction is new."""
    f, first = code.field, {}
    for eid in edges:
        vec = code.global_vectors[eid]
        lead = next(filter(None, vec), 0)
        if lead:
            inv = f.inv(lead)
            first.setdefault(tuple([f.mul(inv, x) for x in vec]), eid)
    points = list(first.values())
    if newest and points[-1:] != [eid]:
        return
    last = (points.pop(),) if newest else ()
    for size in sizes:
        for W in (c + last for c in combinations(points, size - len(last))):
            C = code.coding_matrix(W)
            if C.rank() == size:
                yield W, C


def verify_secrecy_condition(H: FMatrix, code: NetworkCode, mu: int, restricted=None):
    """Exhaustive check of the secrecy rank condition.

    Requires rank [H; C_W] = k + |W| for every full-rank observation of at
    most mu edges (within the restricted set if given), once per set of
    distinct coding-vector directions.  Returns (ok, witness) with witness
    the first violating edge subset, smallest size first, then lexicographic.
    """
    check_budget(mu)
    if mu > code.n:
        raise BudgetExceedsCut(f"mu={mu} exceeds multicast dimension n={code.n}")
    edges = wiretappable_edges(code, restricted)
    for W, C in full_rank_observations(code, edges, range(1, mu + 1)):
        if observation_equivocation(H, C, len(W)) != H.rows:
            return False, W
    return True, None


def secure_lif(net: Network, n: int, mu: int, H: FMatrix,
               f: FieldSpec | None = None) -> SecureDesign:
    """Security-constrained Linear Information Flow construction.

    Visits edges in topological order; at each edge picks the
    lexicographically first local coefficient vector whose global vector
    avoids the edge's `_forbidden_subspaces`: every receiver's flow matrix
    stays invertible and rank [H; C_W] = k + |W| holds for every full-rank
    W = {e} united with processed edges, |W| <= mu.  The search runs
    depth-first over coefficient prefixes in product order and skips each
    prefix whose completions all lie in one receiver's forbidden span.  The
    finished code is verified through `observation_equivocation`.  "checks"
    in the certificate counts forbidden-subspace tests, of prefixes and of
    full vectors, capped at SUBSET_CHECK_CAP (ComplexityCapExceeded).
    Refused before the search: a rank-deficient H (SingularMatrix), k + mu >
    n (BudgetExceedsCut), an n other than the network's (DimensionMismatch),
    and an f or H over another field (FieldMismatch).
    """
    check_budget(mu)
    if f not in (None, net.field):
        raise FieldMismatch(f"f is {f!r}, but the network is over {net.field!r}")
    if H.field != net.field:
        raise FieldMismatch(f"H is over {H.field!r}, but the network is over {net.field!r}")
    f = net.field
    k = H.rows
    if H.cols != n:
        raise DimensionMismatch(f"H has {H.cols} columns, expected n={n}")
    coset = CosetCode(H)  # raises SingularMatrix
    if k + mu > n:
        raise BudgetExceedsCut(f"k + mu = {k + mu} exceeds n={n}: "
                               "no field gives rank [H; C_W] = k + |W|")
    if n != net.n:
        raise DimensionMismatch(f"n={n}, but the network has n={net.n}")
    flows = net.edge_disjoint_flows()

    # edge id -> list of (receiver, path index) where the edge appears
    on_path = {e.id: [] for e in net.edges}
    for r, flow in flows.items():
        for pi, path in enumerate(flow.paths):
            for eid in path:
                on_path[eid].append((r, pi))

    # per-receiver frontier rows, initially the unit vectors (virtual inputs)
    eye = FMatrix.identity(f, n).data
    frontier = {r: list(eye) for r in net.receivers}

    code = NetworkCode(net)
    checks = 0
    order = {e.id: i for i, e in enumerate(net.topological_order)}
    top = mu if k else 0  # security sets have sizes below top; with k = 0 there are none
    security = _security_pairs(code, H, range(top))

    def forbids(inside, outside, vec):
        """One counted test of vec against a `_forbidden_subspaces` pair."""
        nonlocal checks
        checks += 1
        if checks > SUBSET_CHECK_CAP:
            raise ComplexityCapExceeded(f"secure_lif exceeded SUBSET_CHECK_CAP = "
                                        f"{SUBSET_CHECK_CAP} invariant checks at edge {e.id}")
        return not any(dot(f, x, vec) for x in inside) and (
            outside is None or any(dot(f, x, vec) for x in outside))

    def leaves(cand):
        """Completions of cand with their vectors, in product order, bar doomed prefixes."""
        vec = combination(f, cand, inputs, n)
        if len(cand) == len(inputs):
            yield cand, vec
        elif not (cand and any(forbids(x, None, vec) for x in doomed[len(cand)])):
            for c in range(f.order):
                yield from leaves(cand + (c,))

    for e in net.topological_order:
        inputs = code.inputs(e.id)
        forbidden = _forbidden_subspaces(code, frontier, on_path[e.id], security)
        # doomed[j]: the receiver spans holding every input a j-prefix leaves free
        doomed = [[x for x, o in forbidden if o is None and not any(dot(f, row, u)
                   for row in x for u in inputs[j:])] for j in range(len(inputs))]
        for cand, vec in leaves(()):
            if not any(forbids(x, o, vec) for x, o in forbidden):
                break
        else:
            bound = alphabet_bound_general(len(net.edges), max(mu, 1), len(net.receivers))
            raise FieldTooSmall(
                f"no valid coding vector for edge {e.id} over {f!r}; "
                f"the sufficient alphabet bound is q >= {bound}",
                edge=e.id,
                bound=bound,
            )
        code.set_local(e.id, cand)
        code.global_vectors[e.id] = tuple(vec)
        for r, pi in on_path[e.id]:
            frontier[r][pi] = vec
        security += _security_pairs(code, H, range(1, top), newest=True)
        security.sort(key=lambda s: (len(s[0]), [order[eid] for eid in s[0]]))

    code.propagate()
    ok, witness = verify_secrecy_condition(H, code, mu)
    if not ok:
        raise InvariantViolated(
            f"secure_lif output failed verification, witness {witness}", witness=witness
        )
    certificate = {
        "checks": checks,
        "locals": {eid: list(c) for eid, c in code.local.items()},
        "verified": True,
        "flows": {r: [list(p) for p in fl.paths] for r, fl in flows.items()},
    }
    return SecureDesign(coset, code, SecurityParams(mu=mu, k=k, n=n), certificate)


def _forbidden_subspaces(code, frontier, paths, security):
    """The next edge's forbidden subspaces in test order, as pairs (inside,
    outside) of annihilator rows of a span A and its exemption B: v is
    forbidden when it is in A and, unless outside is None, not in B.  Per
    (receiver r, path pi) in `paths`, A is r's frontier without row pi; then
    the pairs of `security`, a list of `_security_pairs` items."""
    f, n = code.field, code.n
    forbidden = []
    for r, pi in paths:
        rest = FMatrix(f, [row for i, row in enumerate(frontier[r]) if i != pi], n)
        forbidden.append((rest.null_space_basis().data, None))
    return forbidden + [pair for _, pair in security]


def _security_pairs(code, H, sizes, newest=False):
    """(W, (inside, outside)) per W from `full_rank_observations` over the
    processed edges: A = [H; C_W] and B = C_W (W has rank k + |W| already)."""
    return [(W, (H.stack(C).null_space_basis().data, C.null_space_basis().data))
            for W, C in full_rank_observations(code, code.global_vectors, sizes, newest)]


# ---- alphabet-size bounds ----

def alphabet_bound_general(E_count: int, mu: int, t: int) -> int:
    """Sufficient field size choose(|E|-1, mu-1) + t for the modified LIF."""
    if E_count < 1 or mu < 1 or t < 1:
        raise DimensionMismatch("arguments must be positive")
    return comb(E_count - 1, mu - 1) + t


def alphabet_bound_minimal(k: int, mu: int, t: int) -> int:
    """Network-size-independent bound choose(2 k^3 t^2, mu-1) + t.

    Counts only the encoding edges of a minimal multicast network; the
    minimal-network reduction itself is not performed here.
    """
    if k < 1 or mu < 1 or t < 1:
        raise DimensionMismatch("arguments must be positive")
    return comb(2 * k ** 3 * t ** 2, mu - 1) + t


def alphabet_bound_two_sources(t: int) -> int:
    """floor(sqrt(2t - 7/4) + 1/2) + 1, via exact integer search.

    s <= sqrt(2t - 7/4) + 1/2 is equivalent to s^2 - s + 2 <= 2t.
    """
    if t < 1:
        raise DimensionMismatch("t must be positive")
    s = 0
    while (s + 1) ** 2 - (s + 1) + 2 <= 2 * t:
        s += 1
    return s + 1


def projective_line_colors(f: FieldSpec, exclude_all_ones: bool = False):
    """Points of the projective line: [0,1], [1,0], [1, alpha^i] for all i."""
    alpha = f.primitive_element()
    pts = [(0, 1), (1, 0)]
    pts += [(1, f.pow(alpha, i)) for i in range(f.order - 1)]
    if exclude_all_ones:
        pts = [p for p in pts if p != (1, 1)]
    return pts


# ---- direct constructions ----

def combination_secure_design(n: int, M: int, f: FieldSpec, k: int) -> SecureDesign:
    """Secure code for B(n, M) from an [M+k, M+k-n] Reed-Solomon code.

    The first k rows of H^T become the coset code; the remaining M rows
    become the source out-edge coding vectors; the middle layer forwards.
    """
    if not 0 <= k <= n:
        raise BadParameters(f"k={k} must lie between 0 and n={n}")
    if M + k > f.order - 1:
        raise FieldTooSmall(
            f"need M+k <= q-1, got {M + k} > {f.order - 1}", bound=M + k + 1
        )
    mu = n - k
    Hfull = rs_parity_check(n, M + k, f)  # n x (M+k)
    Ht = Hfull.transpose()
    H = Ht.submatrix_rows(range(k))  # k x n coset matrix
    edge_vectors = [Ht.row(k + i) for i in range(M)]

    net = combination_network(n, M, f)
    code = NetworkCode(net)
    for i in range(M):
        code.set_local(f"Sm{i}", edge_vectors[i])
    for e in net.edges:
        if e.tail != "S":
            code.set_local(e.id, (1,))
    code.propagate()

    ok, witness = verify_secrecy_condition(H, code, mu)
    if not ok:
        raise InvariantViolated(
            f"combination design failed verification, witness {witness}", witness=witness
        )
    certificate = {"rs_parity_check": [list(r) for r in Hfull.data], "verified": True}
    return SecureDesign(CosetCode(H), code, SecurityParams(mu=mu, k=k, n=n), certificate)


def cai_yeung_to_coset(T: FMatrix, k: int) -> CosetCode:
    """Coset code equivalent to the multiply-by-T scheme: H = first k rows
    of T^-1, so that H (T [S; R]) = S for every secret S and randomness R."""
    if T.rows != T.cols:
        raise SingularMatrix("T must be square")
    Tinv = T.invert()
    return CosetCode(Tinv.submatrix_rows(range(k)))


def byzantine_secrecy_check(H: FMatrix, G_gen: FMatrix, code: NetworkCode,
                            mu: int, restricted=None):
    """Secrecy condition for the coset-then-error-correcting-code cascade:
    rank [H; C_W G] = k + mu for every W with rank(C_W) = mu.

    With G = I_n this is exactly the plain secrecy condition at exact rank mu.
    Returns (ok, witness).
    """
    check_budget(mu)
    if G_gen.rows != code.n:
        raise DimensionMismatch(
            f"generator has {G_gen.rows} rows, expected n={code.n}"
        )
    if H.cols != G_gen.cols:
        raise DimensionMismatch(
            f"H has {H.cols} columns but the generator has {G_gen.cols}"
        )
    edges = wiretappable_edges(code, restricted)
    for W, C in full_rank_observations(code, edges, (mu,)):
        if observation_equivocation(H, C.mul_mat(G_gen), mu) != H.rows:
            return False, W
    return True, None
