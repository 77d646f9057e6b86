"""Construction and verification of secure network codes.

The central condition: a coset code with parity check H (k x n, k = n - mu)
stays perfectly secret on a network iff rank [H; C_W] = k + |W| for every
full-rank observation C_W of at most mu edges.  Both sides depend on C_W
only through its row space, so every verification and every equivocation
runs over one walk, `full_rank_observations`, over sets of distinct
coding-vector directions, each named by its points' first edges (the
witness an edge-subset search in lexicographic order finds), prepared by
`observation_points`, which also gives rank H, rank C_E and rank [H; C_E]
with no elimination of every edge row; over every edge, the code keeps
it (`NetworkCode.prepared` says how long).  Down a prefix
tree, the walk carries every later point's remainder by C_W and [H; C_W],
one row step per point per level, but a node above the leaves compares
lead forms instead (the root's are its points, each prepared in lead form).
It yields d = rank [H; C_W] - |W| for the first full-rank set and then only
for the sets that lower the running minimum, and cuts every prefix that
cannot: d is at most k, so a set violates iff its d is below k, and a
verification is the first yield with d != k; Delta(mu) is the last yield.
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

from math import comb, inf, isqrt

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
from .fmatrix import FMatrix, combination, eliminate, lead, lead_form
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
                  G: FMatrix | None = None):
    """Admit a wiretap search on (H, code, mu, restricted), with G in the
    cascade check: the one check of H and G against the network, made by
    every analysis before any shortcut, by `secure_lif` and by a design load.
    Refuses mu < 0 (BadBudgets), an H or G over another field (FieldMismatch),
    a G without n rows or an H whose width is not n, or G's width when given
    (DimensionMismatch), unknown restricted edges, and a rank-deficient H
    (SingularMatrix).  Returns the wiretappable edge ids, sorted."""
    check_budget(mu)
    for label, M in (("H", H), ("G", G)):
        if M is not None and M.field != code.field:
            raise FieldMismatch(f"{label} is over {M.field!r}, "
                                f"but the network is over {code.field!r}")
    if G is not None and G.rows != code.n:
        raise DimensionMismatch(f"generator has {G.rows} rows, expected n={code.n}")
    width = code.n if G is None else G.cols
    if H.cols != width:
        raise DimensionMismatch(f"H has {H.cols} columns, expected {width}")
    if (rank := H.reduced[2]) != H.rows:
        raise SingularMatrix(f"parity check must have full row rank {H.rows}", rank=rank)
    return wiretappable_edges(code, restricted)


def admit_deltas(H: FMatrix, code: NetworkCode, mus, restricted=None):
    """`admit_wiretap` at the first of `mus`, a non-empty ascending sequence,
    then the refusal of the first of `mus` past the wiretappable edges
    (DimensionMismatch), reading `mus` no further, so a sweep to any mu_max
    is refused at once; returns the edges."""
    edges = admit_wiretap(H, code, mus[0], restricted)
    for mu in mus:
        if mu > len(edges):
            raise DimensionMismatch(f"mu={mu} exceeds {len(edges)} wiretappable edges")
    return edges


class Preparation(tuple):
    """The walk's preparation (base, points) from `observation_points`; `ranks`
    is None until `equivocation._deltas` reads (rank C_E, floor) off them."""
    ranks = None


def observation_points(code: NetworkCode, edges, H: FMatrix, G: FMatrix | None = None):
    """The walk's preparation: (base, points), base H's reduced echelon
    basis (the first rank rows of `FMatrix.reduced`, cut to n columns), and
    per distinct coding-vector direction of `edges` (`lead_form` of a nonzero
    global vector v) one point: its first edge, the direction, and the lead
    form of v G reduced by base (G = I if None), () in span H.  Those span
    C_E and a complement of span H in span [H; C_E G].  Over
    every edge it is kept on the code (`NetworkCode.prepared`); a restricted
    set is prepared for this call only.  The caller admits H and G
    (`admit_wiretap`)."""
    f = code.field

    def prepare():
        first, distinct = {}, {}
        for eid in edges:  # forwarding edges repeat their input's vector
            distinct.setdefault(code.global_vectors[eid], eid)
        for vec, eid in distinct.items():
            if direction := lead_form(f, vec):
                first.setdefault(direction, eid)
        rows, pivots, rank = H.reduced
        base = tuple((p, row[:H.cols]) for p, row in zip(pivots[:rank], rows))

        def remainder(v):  # of v G by base
            return lead_form(f, eliminate(f, base, combination(f, v, G.data, G.cols) if G else v))
        return Preparation((base, tuple((e, v, remainder(v)) for v, e in first.items())))

    if edges != code.network.sorted_edge_ids:
        return prepare()
    if G is None:
        return code.prepared("walk", H.data, prepare)
    return code.prepared("cascade", (H.data, G.data), prepare)


def full_rank_observations(f: FieldSpec, base, points, sizes):
    """Yield (W, d), d = rank [H; C_W G] - |W|, for the first set W of `points`
    (`observation_points`, with H's basis `base`) of the given sizes whose C_W
    has full rank |W|, sizes in the given order, then lexicographic, named by
    first edges, and after it for each whose d is below every d yielded
    before: a j-prefix of a size-s set is cut when its d - (s - j) is not, as
    a point lowers d by at most 1.  Depth first, each node holds its later
    points as remainders by echelon bases of C_W and [H; C_W G]: taking a
    point reduces each later one by the one new row of each basis and drops
    those left in span C_W.  Above the leaves, as r - r[p] s = 0 for a row s
    with 1 at pivot p iff r's lead form is s, a node compares its points'
    lead forms instead: the root's points are theirs, and a node below it
    makes them once, at its first point not cut."""
    best = inf

    def grow(W, points, c, hc, left, forms):  # c, hc: the ranks of C_W and [H; C_W G]
        nonlocal best
        if not left:
            best = hc - c
            yield W, best
            return
        for j in range(len(points) - left + 1):
            eid, row, hrow = points[j]
            gain = any(hrow)
            # d with this point, less the left - 1 points to come, must beat best
            if (low := hc + gain - c - left) >= best:
                continue
            if left == 2:  # a later point gains iff its H form is nonzero and not this one's
                if not forms:
                    forms += [(e, lead_form(f, r), lead_form(f, h)) for e, r, h in points]
                _, r, h = forms[j]
                for e, ri, hi in forms[j + 1:]:
                    if ri != r and (d := low + (hi != h and hi != ())) < best:
                        best = d
                        yield W + (eid, e), d
                continue
            later = []
            if left > 1:  # the remainders of the points after this one
                step, hstep = [lead(f, row)], [lead(f, hrow)] if gain else []
                for e, r, h in points[j + 1:]:
                    r = eliminate(f, step, r)
                    if any(r):
                        later.append((e, r, eliminate(f, hstep, h) if gain and h else h))
            yield from grow(W + (eid,), later, c + 1, hc + gain, left - 1, [])

    for size in sizes:
        yield from grow((), points, 0, len(base), size, points)


def verify_secrecy_condition(H: FMatrix, code: NetworkCode, mu: int, restricted=None):
    """Exhaustive check of the secrecy rank condition.

    Requires rank [H; C_W] = k + |W| for every full-rank observation of at
    most mu edges (within the restricted set if given), over the walk's
    running minima, which skip only the sets that cannot violate.  Returns
    (ok, witness) with witness the first violating edge subset, smallest
    size first, then lexicographic.
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
    other than the network's, what `admit_wiretap` refuses (a rank-deficient
    H among it) and k + mu > n (BudgetExceedsCut).
    """
    if n != net.n:
        raise DimensionMismatch(f"n={n}, but the network has n={net.n}")
    if f not in (None, net.field):
        raise FieldMismatch(f"f is {f!r}, but the network is over {net.field!r}")
    k = H.rows
    code = NetworkCode(net)
    admit_wiretap(H, code, mu)
    if k + mu > n:
        raise BudgetExceedsCut(f"k + mu = {k + mu} exceeds n={n}: "
                               "no field gives rank [H; C_W] = k + |W|")
    from .lif import search  # compiled only by a process that builds
    checks = 0
    for *_, checks in search(code, H, mu):  # the count after the last edge
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
    return SecureDesign(CosetCode(H), code, mu, certificate=certificate)


# ---- alphabet-size bounds ----

def _bound_arguments(t: int, *named):
    """Refuse the first of `named`'s (name, value) pairs, then t, below 1."""
    for name, value in (*named, ("the receiver count t", t)):
        if value < 1:
            raise DimensionMismatch(f"{name}={value} must be at least 1")


def alphabet_bound_general(E_count: int, mu: int, t: int) -> int:
    """Sufficient field size choose(|E|-1, mu-1) + t for the modified LIF."""
    _bound_arguments(t, ("the edge count |E|", E_count), ("mu", mu))
    return comb(E_count - 1, mu - 1) + t


def alphabet_bound_minimal(k: int, mu: int, t: int) -> int:
    """Network-size-independent bound choose(2 k^3 t^2, mu-1) + t.

    Counts only the encoding edges of a minimal multicast network; the
    minimal-network reduction itself is not performed here.
    """
    _bound_arguments(t, ("k", k), ("mu", mu))
    return comb(2 * k ** 3 * t ** 2, mu - 1) + t


def alphabet_bound_two_sources(t: int) -> int:
    """floor(sqrt(2t - 7/4) + 1/2) + 1, exactly.

    s <= sqrt(2t - 7/4) + 1/2 is equivalent to s^2 - s + 2 <= 2t, that is to
    (2s - 1)^2 <= 8t - 7, so the largest such s is (isqrt(8t - 7) + 1) // 2.
    """
    _bound_arguments(t)
    return (isqrt(8 * t - 7) + 1) // 2 + 1


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
    edge_vectors = Ht.data[k:]

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
