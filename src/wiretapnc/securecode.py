"""Construction and verification of secure network codes.

The central condition: a coset code with parity check H (k x n, k = n - mu)
stays perfectly secret on a network iff rank [H; C_W] = k + |W| for every
full-rank observation C_W of at most mu edges.  Both sides depend on C_W
only through its row space, so every verification and every equivocation
runs over one walk, `full_rank_observations`, over sets of distinct
coding-vector directions, each named by its points' first edges (the
witness an edge-subset search in lexicographic order finds).  The walk
carries echelon bases of C_W and [H; C_W] down a prefix tree, one row
reduction per step, and yields rank [H; C_W] - |W|.  `secure_lif` (Linear
Information Flow with security invariants) tests candidates by the
containment form of the condition: a new vector must leave span [H; C_W]
unless it lies in span C_W; it grows those sets from the bases it holds and
walks point sets only to verify its output.  The rest covers alphabet bounds,
the combination network design, the Cai-Yeung equivalence, and the Byzantine
cascade condition.
"""

from __future__ import annotations

from math import comb, inf

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
from .fmatrix import FMatrix, combination, dot, echelon, null_space, reduce_row
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


def check_budget(mu: int, name: str = "mu"):
    """Refuse a negative wiretap budget."""
    if mu < 0:
        raise BadBudgets(f"{name}={mu} must be non-negative")


def admit_wiretap(H: FMatrix, code: NetworkCode, mu: int, restricted=None,
                  G: FMatrix | None = None, name: str = "mu"):
    """Admit a wiretap search on (H, code, mu, restricted), with G in the
    cascade check: every analysis calls this first, before any shortcut.
    Refuses mu < 0 (BadBudgets), an H over another field (FieldMismatch), a
    G without n rows or an H whose width is not n, or G's width when given
    (DimensionMismatch), and unknown restricted edges.  Returns the
    wiretappable edge ids, sorted."""
    check_budget(mu, name)
    if H.field != code.field:
        raise FieldMismatch(f"H is over {H.field!r}, but the code is over {code.field!r}")
    if G is not None and G.rows != code.n:
        raise DimensionMismatch(f"generator has {G.rows} rows, expected n={code.n}")
    width = code.n if G is None else G.cols
    if H.cols != width:
        raise DimensionMismatch(f"H has {H.cols} columns, expected {width}")
    return wiretappable_edges(code, restricted)


def full_rank_observations(code: NetworkCode, edges, sizes, H: FMatrix, G: FMatrix | None = None,
                           least=False):
    """Yield (W, d) per set W of distinct coding-vector directions of the
    given sizes whose C_W has full rank |W|, in lexicographic order per size.
    A direction is a nonzero global vector scaled to a leading 1; W names the
    first edge of `edges` on each.  d = rank [H; C_W G] - |W| (G = I if None).
    The walk goes depth first and carries echelon bases (`fmatrix.reduce_row`)
    of C_W and [H; C_W G], one row reduction per step; a dependent prefix ends
    its subtree.  `least`: only the sets whose d is below every d yielded
    before; a j-prefix of a size-s set is cut when its d - (s - j) is not, as
    a point lowers d by at most 1.  The caller admits H and G (`admit_wiretap`)."""
    f, vectors, first = code.field, {}, {}
    for eid in edges:  # forwarding edges repeat their input's vector
        vectors.setdefault(code.global_vectors[eid], eid)
    for vec, eid in vectors.items():
        point = reduce_row(f, [], vec)
        if point:
            first.setdefault(tuple(point[1]), eid)
    points = [(eid, v, v if G is None else combination(f, v, G.data, G.cols))
              for v, eid in first.items()]
    best = inf

    def grow(W, start, C, HC, left):
        nonlocal best
        if not left:
            if least:
                best = len(HC) - len(C)
            yield W, len(HC) - len(C)
            return
        for j in range(start, len(points) - left + 1):
            eid, row, hrow = points[j]
            step = reduce_row(f, C, row)
            if step:
                hstep = reduce_row(f, HC, hrow)
                grown = HC + [hstep] if hstep else HC
                # d with this point, less the left - 1 points to come, must beat best
                if len(grown) - len(C) - left < best:
                    yield from grow(W + (eid,), j + 1, C + [step], grown, left - 1)

    for size in sizes:
        yield from grow((), 0, [], echelon(f, H.data), size)


def verify_secrecy_condition(H: FMatrix, code: NetworkCode, mu: int, restricted=None):
    """Exhaustive check of the secrecy rank condition.

    Requires rank [H; C_W] = k + |W| for every full-rank observation of at
    most mu edges (within the restricted set if given), once per set of
    distinct coding-vector directions.  Returns (ok, witness) with witness
    the first violating edge subset, smallest size first, then lexicographic.
    """
    return _first_violation(H, code, mu, restricted, range(1, mu + 1))


def _first_violation(H, code, mu, restricted, sizes, G=None):
    """Admit the search, refuse mu > n, and return (ok, witness) of rank
    [H; C_W G] = k + |W| over the full-rank observations of the given sizes."""
    edges = admit_wiretap(H, code, mu, restricted, G)
    if mu > code.n:
        raise BudgetExceedsCut(f"mu={mu} exceeds multicast dimension n={code.n}")
    for W, d in full_rank_observations(code, edges, sizes, H, G):
        if d != H.rows:
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
    finished code is verified by `verify_secrecy_condition`.  "checks"
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
    top = mu if k else 0  # security sets have sizes below top; with k = 0 there are none
    # the security sets as a prefix tree whose levels list them in order: kids[W] holds
    # the sets W + (x,) in the order x was coded, bases[W] the echelon bases of C_W and
    # [H; C_W], and seen the directions coded so far
    bases, kids, seen = {}, {}, set()

    def node(W, C, HC):  # W's `_forbidden_subspaces` item: A = [H; C_W], B = C_W
        bases[W] = C, HC
        return W, (null_space(f, HC, n), null_space(f, C, n))

    roots = [node((), [], echelon(f, H.data))] if top else []

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
        security, level = [], roots
        while level:
            security += level
            level = [pair for W, _ in level for pair in kids.get(W, ())]
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
        # a new direction joins each smaller set W it is independent of; having
        # passed W's pair, vec then also leaves span [H; C_W]
        point = reduce_row(f, [], vec)  # (lead index, vec scaled to 1 there), or None
        if point and tuple(point[1]) not in seen:
            seen.add(tuple(point[1]))
            for W, _ in security:
                C, HC = bases[W]
                step = len(W) < top - 1 and reduce_row(f, C, vec)
                if step:
                    kids.setdefault(W, []).append(
                        node(W + (e.id,), C + [step], HC + [reduce_row(f, HC, vec)]))

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
    the pairs of `security`, a list of (W, pair) items."""
    f, n = code.field, code.n
    return [(null_space(f, echelon(f, frontier[r][:pi] + frontier[r][pi + 1:]), n), None)
            for r, pi in paths] + [pair for _, pair in security]


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
    Returns (ok, witness); mu > n is refused, as in `verify_secrecy_condition`.
    """
    return _first_violation(H, code, mu, restricted, (mu,), G_gen)
