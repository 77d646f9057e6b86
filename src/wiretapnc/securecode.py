"""Construction and verification of secure network codes.

The central condition: a coset code with parity check H (k x n, k = n - mu)
stays perfectly secret on a network iff rank [H; C_W] = k + |W| for every
full-rank observation C_W of at most mu edges.  Both sides depend on C_W
only through its row space, so every verification and every equivocation
runs over one walk, `full_rank_observations`, over sets of distinct
coding-vector directions, each named by its points' first edges (the
witness an edge-subset search in lexicographic order finds), prepared by
`observation_points`, which also gives rank H, rank C_E and rank [H; C_E]
with no elimination of every edge row.  A code keeps the preparation per
(H, G, edge set) and reuses it while its global vectors on those edges are
unchanged (`NetworkCode.prepared`).  Down a prefix
tree, the walk carries every later point's remainder by C_W and [H; C_W],
one row step per point per level, and yields rank [H; C_W] - |W|.
`secure_lif` (Linear Information Flow with security invariants) tests
candidates by the containment form of the condition: a new vector must leave
span [H; C_W] unless it lies in span C_W.  Its search, in `lif`, grows those
sets from the bases it holds, gathers them only for a vector of a new
direction, and solves a line for the last coefficient once such a vector
fails one; point sets are walked only to verify its output.  The rest covers
alphabet bounds, the combination network design, the Cai-Yeung equivalence,
and the Byzantine cascade condition.
"""

from __future__ import annotations

from math import comb, inf

from .coset import CosetCode, rs_parity_check
from .exceptions import (
    BadBudgets,
    BadParameters,
    BudgetExceedsCut,
    DimensionMismatch,
    FieldMismatch,
    FieldTooSmall,
    InvariantViolated,
    SingularMatrix,
)
from .fmatrix import FMatrix, combination, eliminate, lead
from .gf import FieldSpec
from .netgraph import Network, NetworkCode, combination_network

SUBSET_CHECK_CAP = 10 ** 7


class SecureDesign:
    """A coset code on a network code, with the claimed budget mu and the
    wiretappable edges (None: every edge); k and n are the coset code's."""
    __slots__ = ("coset", "netcode", "mu", "restricted_edges", "certificate")

    def __init__(self, coset: CosetCode, netcode: NetworkCode, mu: int,
                 restricted_edges: tuple | None = None, certificate: dict | None = None):
        self.coset, self.netcode, self.mu = coset, netcode, mu
        self.restricted_edges = restricted_edges
        self.certificate = {} if certificate is None else certificate


def wiretappable_edges(code: NetworkCode, restricted=None):
    """The tuple of edge ids open to the wiretapper, in sorted (enumeration)
    order: those in `restricted`, or, when it is None or empty, every edge,
    the network's own `sorted_edge_ids`."""
    ids = code.network.sorted_edge_ids
    if not restricted:
        return ids
    restricted = set(restricted)
    unknown = restricted - code.network.edge_by_id.keys()
    if unknown:
        raise DimensionMismatch(f"restricted set names unknown edges {sorted(unknown)}")
    return tuple(eid for eid in ids if eid in restricted)


def check_budget(mu: int, name: str = "mu"):
    """Refuse a negative wiretap budget."""
    if mu < 0:
        raise BadBudgets(f"{name}={mu} must be non-negative")


def admit_wiretap(H: FMatrix, code: NetworkCode, mu: int, restricted=None,
                  G: FMatrix | None = None, name: str = "mu"):
    """Admit a wiretap search on (H, code, mu, restricted), with G in the
    cascade check: the one check of H and G against the network, made by
    every analysis before any shortcut, by `secure_lif` and by a design load.
    Refuses mu < 0 (BadBudgets), an H or G over another field (FieldMismatch),
    a G without n rows or an H whose width is not n, or G's width when given
    (DimensionMismatch), and unknown restricted edges.  Returns the
    wiretappable edge ids, sorted."""
    check_budget(mu, name)
    for label, M in (("H", H), ("G", G)):
        if M is not None and M.field != code.field:
            raise FieldMismatch(f"{label} is over {M.field!r}, "
                                f"but the network is over {code.field!r}")
    if G is not None and G.rows != code.n:
        raise DimensionMismatch(f"generator has {G.rows} rows, expected n={code.n}")
    width = code.n if G is None else G.cols
    if H.cols != width:
        raise DimensionMismatch(f"H has {H.cols} columns, expected {width}")
    return wiretappable_edges(code, restricted)


class Preparation(tuple):
    """The walk's preparation (base, points), as `observation_points` keeps
    it on a code; `ranks` is (rank C_E, floor) once Delta(mu) has read them
    off the points (`equivocation._deltas`), None before."""
    ranks = None


def observation_points(code: NetworkCode, edges, H: FMatrix, G: FMatrix | None = None):
    """The walk's preparation: (base, points), base H's reduced echelon
    basis (the first rank rows of `FMatrix.reduced`, cut to n columns), and
    per distinct coding-vector direction of `edges` (a nonzero global
    vector v scaled to a leading 1) one point: its first edge, the direction,
    and v G reduced by base (G = I if None).  The directions span C_E, and
    their remainders span a complement of span H in span [H; C_E G].  Made
    on a code's first analysis with (H, G, edges), as a `Preparation`, and
    reused by each later one while the global vectors on `edges` are
    unchanged (`NetworkCode.prepared`).  The caller admits H and G
    (`admit_wiretap`)."""
    f = code.field

    def prepare(vectors):
        first, distinct = {}, {}
        for vec, eid in zip(vectors, edges):  # forwarding edges repeat their input's vector
            distinct.setdefault(vec, eid)
        for vec, eid in distinct.items():
            point = lead(f, vec)
            if point:
                first.setdefault(tuple(point[1]), eid)
        rows, pivots, rank = H.reduced
        base = tuple((p, row[:H.cols]) for p, row in zip(pivots[:rank], rows))

        def remainder(v):  # of v G by base
            return tuple(eliminate(f, base, v if G is None else combination(f, v, G.data, G.cols)))
        return Preparation((base, tuple((e, v, remainder(v)) for v, e in first.items())))

    return code.prepared((H.data, None if G is None else G.data, tuple(edges)), edges, prepare)


def full_rank_observations(f: FieldSpec, base, points, sizes, least=False):
    """Yield (W, d) per set W of `points` (`observation_points`, with H's basis
    `base`) of the given sizes whose C_W has full rank |W|, in lexicographic
    order per size, named by first edges; d = rank [H; C_W G] - |W|.  Depth
    first, each node holds its later points as remainders by echelon bases of
    C_W and [H; C_W G]: taking a point reduces each later one by the one new
    row of each basis, drops those left in span C_W, and a leaf reduces
    nothing.  `least`: only the sets whose d is below every d yielded before;
    a j-prefix of a size-s set is cut when its d - (s - j) is not, as a point
    lowers d by at most 1."""
    best = inf

    def grow(W, points, c, hc, left):  # c, hc: the ranks of C_W and [H; C_W G]
        nonlocal best
        if not left:
            if least:
                best = hc - c
            yield W, hc - c
            return
        for j in range(len(points) - left + 1):
            eid, row, hrow = points[j]
            gain = any(hrow)
            # d with this point, less the left - 1 points to come, must beat best
            if hc + gain - c - left < best:
                later = []
                if left > 1:  # the remainders of the points after this one
                    step, hstep = [lead(f, row)], [lead(f, hrow)] if gain else []
                    for e, r, h in points[j + 1:]:
                        r = eliminate(f, step, r)
                        if any(r):
                            later.append((e, r, eliminate(f, hstep, h) if gain else h))
                yield from grow(W + (eid,), later, c + 1, hc + gain, left - 1)

    for size in sizes:
        yield from grow((), points, 0, len(base), size)


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
    for W, d in full_rank_observations(code.field, *observation_points(code, edges, H, G), sizes):
        if d != H.rows:
            return False, W
    return True, None


def secure_lif(net: Network, n: int, mu: int, H: FMatrix,
               f: FieldSpec | None = None) -> SecureDesign:
    """Security-constrained Linear Information Flow construction.

    Visits edges in topological order; at each edge picks the
    lexicographically first local coefficient vector whose global vector
    avoids the edge's forbidden subspaces: every receiver's flow matrix
    stays invertible and rank [H; C_W] = k + |W| holds for every full-rank
    W = {e} united with processed edges, |W| <= mu.  Every forbidden set is
    a span, less an exempt span, so c and lambda c share a verdict, and the
    search (`lif.search`) tries only the c whose first nonzero coefficient
    is 1, prunes prefixes, and solves for the last coefficient.  Only the
    encoding edges of the flow union are searched: an edge on no flow carries
    the zero vector, untested, and one on a flow with one input repeats it.
    The output is verified by `verify_secrecy_condition`.  "checks" in the
    certificate counts forbidden-subspace tests, capped at SUBSET_CHECK_CAP
    (CapExceeded).
    Refused before the search: an n (DimensionMismatch) or f (FieldMismatch)
    other than the network's, what `admit_wiretap` refuses, a rank-deficient
    H (SingularMatrix) and k + mu > n (BudgetExceedsCut).
    """
    if n != net.n:
        raise DimensionMismatch(f"n={n}, but the network has n={net.n}")
    if f not in (None, net.field):
        raise FieldMismatch(f"f is {f!r}, but the network is over {net.field!r}")
    k = H.rows
    code = NetworkCode(net)
    admit_wiretap(H, code, mu)
    coset = CosetCode(H)  # raises SingularMatrix
    if k + mu > n:
        raise BudgetExceedsCut(f"k + mu = {k + mu} exceeds n={n}: "
                               "no field gives rank [H; C_W] = k + |W|")
    from .lif import search  # compiled only by a process that builds
    checks = 0
    for *_, checks in search(code, H, mu, SUBSET_CHECK_CAP):  # the count after the last edge
        pass
    ok, witness = verify_secrecy_condition(H, code, mu)
    if not ok:
        raise InvariantViolated(
            f"secure_lif output failed verification, witness {witness}", witness=witness
        )
    certificate = {
        "checks": checks,
        "locals": {eid: list(c) for eid, c in code.local.items()},
    }
    return SecureDesign(coset, code, mu, certificate=certificate)


# ---- alphabet-size bounds ----

def alphabet_bound_general(E_count: int, mu: int, t: int) -> int:
    """Sufficient field size choose(|E|-1, mu-1) + t for the modified LIF."""
    for name, value in (("the edge count |E|", E_count), ("mu", mu), ("the receiver count t", t)):
        if value < 1:
            raise DimensionMismatch(f"{name}={value} must be at least 1")
    return comb(E_count - 1, mu - 1) + t


def alphabet_bound_minimal(k: int, mu: int, t: int) -> int:
    """Network-size-independent bound choose(2 k^3 t^2, mu-1) + t.

    Counts only the encoding edges of a minimal multicast network; the
    minimal-network reduction itself is not performed here.
    """
    for name, value in (("k", k), ("mu", mu), ("the receiver count t", t)):
        if value < 1:
            raise DimensionMismatch(f"{name}={value} must be at least 1")
    return comb(2 * k ** 3 * t ** 2, mu - 1) + t


def alphabet_bound_two_sources(t: int) -> int:
    """floor(sqrt(2t - 7/4) + 1/2) + 1, via exact integer search.

    s <= sqrt(2t - 7/4) + 1/2 is equivalent to s^2 - s + 2 <= 2t.
    """
    if t < 1:
        raise DimensionMismatch(f"the receiver count t={t} must be at least 1")
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
    certificate = {"rs_parity_check": [list(r) for r in Hfull.data]}
    return SecureDesign(CosetCode(H), code, mu, certificate=certificate)


def cai_yeung_to_coset(T: FMatrix, k: int) -> CosetCode:
    """Coset code equivalent to the multiply-by-T scheme: H = first k rows
    of T^-1, so that H (T [S; R]) = S for every secret S and randomness R."""
    if T.rows != T.cols:
        raise SingularMatrix("T must be square")
    if not 0 <= k <= T.rows:
        raise BadParameters(f"k={k} must lie between 0 and n={T.rows}")
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
