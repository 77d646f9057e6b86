"""Construction and verification of secure network codes.

The central condition: a coset code with parity check H (k x n, k = n - mu)
stays perfectly secret on a network iff rank [H; C_W] = k + |W| for every
full-rank observation C_W of at most mu edges.  `observation_equivocation`
is the one place that computes rank [H; C_W] - rank C_W, and every check
here and in `equivocation` goes through it.  `verify_secrecy_condition`
checks the condition exhaustively; `secure_lif` constructs codes satisfying
it by extending the Linear Information Flow greedy algorithm with security
invariants; the remaining functions cover alphabet bounds, the combination
network direct construction, the Cai-Yeung equivalence, and the Byzantine
cascade condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations, product
from math import comb

from .coset import CosetCode, rs_parity_check
from .exceptions import (
    BudgetExceedsCut,
    ComplexityCapExceeded,
    DimensionMismatch,
    FieldTooSmall,
    InsufficientCut,
    InvariantViolated,
    SingularMatrix,
)
from .fmatrix import FMatrix, combination
from .gf import FieldSpec
from .netgraph import Network, NetworkCode, combination_network

SUBSET_CHECK_CAP = 10 ** 7


@dataclass(frozen=True)
class SecurityParams:
    mu: int
    k: int
    n: int
    restricted_edges: tuple | None = None


@dataclass
class SecureDesign:
    coset: CosetCode
    netcode: NetworkCode
    params: SecurityParams
    certificate: dict = dc_field(default_factory=dict)

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


def full_rank_observations(code: NetworkCode, edges, sizes):
    """Yield (W, C_W) for each W of the given sizes, in lexicographic order
    within each size, whose coding matrix C_W has full rank |W|."""
    for size in sizes:
        for W in combinations(edges, size):
            C = code.coding_matrix(W)
            if C.rank() == size:
                yield W, C


def verify_secrecy_condition(H: FMatrix, code: NetworkCode, mu: int, restricted=None):
    """Exhaustive check of the secrecy rank condition.

    Enumerates every edge subset W of size <= mu (within the restricted set if
    given) whose coding matrix has full rank |W| and requires
    rank [H; C_W] = k + |W|.  Returns (ok, witness) with witness the first
    violating subset in lexicographic order.
    """
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
    lexicographically first local coefficient vector that (a) keeps every
    receiver's flow matrix invertible and (b) keeps rank [H; C_W] = k + |W|
    for every full-rank W = {e} united with processed edges of size <= mu.
    Raises ComplexityCapExceeded once more than SUBSET_CHECK_CAP invariant
    checks of either kind have run.
    """
    f = net.field if f is None else f
    k = H.rows
    if H.cols != n:
        raise DimensionMismatch(f"H has {H.cols} columns, expected n={n}")
    if mu > n:
        raise BudgetExceedsCut(f"mu={mu} exceeds n={n}")
    flows = net.edge_disjoint_flows(n)  # raises InsufficientCut
    cap = SUBSET_CHECK_CAP

    # edge id -> list of (receiver, path index) where the edge appears
    on_path = {e.id: [] for e in net.edges}
    for r, flow in flows.items():
        for pi, path in enumerate(flow.paths):
            for eid in path:
                on_path[eid].append((r, pi))

    # per-receiver frontier rows, initially the unit vectors (virtual inputs)
    eye = FMatrix.identity(f, n).data
    frontier = {r: list(eye) for r in net.receivers}

    code = NetworkCode(net, n)
    q = f.order
    processed = []
    checks = 0

    for e in net.topological_order:
        inputs = code.inputs(e.id)
        # full-rank processed subsets of size <= mu-1, computed once per edge
        security_sets = list(full_rank_observations(code, processed, range(mu)))
        accepted = None
        for cand in product(range(q), repeat=len(inputs)):
            vec = combination(f, cand, inputs, n)
            ok = True
            for r, pi in on_path[e.id]:
                rows = [row for i, row in enumerate(frontier[r]) if i != pi]
                rows.append(vec)
                checks += 1
                if checks > cap:
                    raise _over_cap(cap, e.id)
                if FMatrix(f, rows, n).rank() != n:
                    ok = False
                    break
            if ok and k:
                vrow = FMatrix(f, [vec], n)
                for W, C in security_sets:
                    checks += 1
                    if checks > cap:
                        raise _over_cap(cap, e.id)
                    CW = C.stack(vrow)
                    r_cw = CW.rank()
                    if r_cw != C.rows + 1:
                        continue  # rank-deficient observation, dominated
                    if observation_equivocation(H, CW, r_cw) != k:
                        ok = False
                        break
            if ok:
                accepted = (cand, vec)
                break
        if accepted is None:
            bound = alphabet_bound_general(len(net.edges), max(mu, 1), len(net.receivers))
            raise FieldTooSmall(
                f"no valid coding vector for edge {e.id} over {f!r}; "
                f"the sufficient alphabet bound is q >= {bound}",
                edge=e.id,
                bound=bound,
            )
        cand, vec = accepted
        code.set_local(e.id, cand)
        code.global_vectors[e.id] = tuple(vec)
        for r, pi in on_path[e.id]:
            frontier[r][pi] = vec
        processed.append(e.id)

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
    return SecureDesign(
        CosetCode(H), code, SecurityParams(mu=mu, k=k, n=n), certificate
    )


def _over_cap(cap, edge_id):
    return ComplexityCapExceeded(
        f"secure_lif exceeded SUBSET_CHECK_CAP = {cap} invariant checks at edge {edge_id}"
    )


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
    alpha = int(f.primitive_element())
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
    code = NetworkCode(net, n)
    for i in range(M):
        code.set_local(f"Sm{i}", edge_vectors[i])
    for e in net.edges:
        if e.tail != "S":
            code.set_local(e.id, (1,))
    code.propagate()

    certificate = {"rs_parity_check": [list(r) for r in Hfull.data]}
    if mu >= 0:
        ok, witness = verify_secrecy_condition(H, code, mu)
        if not ok:
            raise InvariantViolated(
                f"combination design failed verification, witness {witness}",
                witness=witness,
            )
        certificate["verified"] = True
    return SecureDesign(
        CosetCode(H), code, SecurityParams(mu=mu, k=k, n=n), certificate
    )


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
