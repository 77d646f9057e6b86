"""Exact wiretapper-equivocation analysis via the rank formula.

Y is uniform on F_q^n, so the equivocation of an observation W is
H(S | Z_W) = rank [H; C_W] - rank C_W, for full-rank and rank-deficient C_W
alike.  Delta(mu) is its minimum over all W of size mu, attained where C_W
has the largest rank, min(mu, rank C_E).  For mu <= rank C_E it is a
branch-and-bound over the walk of sets of mu distinct coding-vector
directions (`securecode.full_rank_observations`: each point reduced by H once,
then by one new row of C_W's and of [H; C_W]'s basis per level), which stops
at the floor max(rank H - mu, rank [H; C_E] - rank C_E); for mu > rank C_E every
largest-rank W spans C_E, so Delta(mu) = rank [H; C_E] - rank C_E, flagged.
A call, or a sweep for all its mu, looks up the points once
(`observation_points`); rank H, rank C_E and rank [H; C_E] are read off
them.  The code keeps the points per (H, edge set), with rank C_E and the
floor once a Delta has read them, while its global vectors on those edges
are unchanged (`NetworkCode.prepared`).  The flagged witnesses come from one
reduction pass over the edge rows for every flagged mu (`_first_spanning`).
The witness is the first minimiser, in lexicographic order, among the
largest-rank edge subsets: the smallest representative tuple of a
minimising point set, or the first mu-subset spanning C_E.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .exceptions import (
    BadBudgets,
    CapExceeded,
    CutNotInvertible,
    DimensionMismatch,
    SingularMatrix,
)
from .fmatrix import FMatrix, combination, echelon, reduce_row
from .netgraph import NetworkCode
from .securecode import (admit_wiretap, check_budget, full_rank_observations,
                         observation_points, wiretappable_edges)

GHW_CODEWORD_CAP = 10 ** 6


class EquivocationReport:
    __slots__ = ("delta", "witnesses", "flagged", "d_profile")

    def __init__(self):
        self.delta = {}  # mu -> Delta(mu)
        self.witnesses = {}  # mu -> minimizing W
        self.flagged = {}  # mu -> True if no full-rank W
        self.d_profile = {}  # r -> d_r


def equivocation_rank(H: FMatrix, code: NetworkCode, mu: int, restricted=None):
    """Delta(mu) by the rank formula: exact minimum over edge subsets.

    Returns (delta, witness, flagged); flagged means mu > rank C_E, so no
    size-mu subset achieves rank mu.
    """
    edges = admit_wiretap(H, code, mu, restricted)
    if mu == 0:
        return H.rows, (), False
    if mu > len(edges):
        raise DimensionMismatch(f"mu={mu} exceeds {len(edges)} wiretappable edges")
    return next(_deltas(H, code, edges, (mu,)))


def _deltas(H, code, edges, mus):
    """(delta, witness, flagged) per mu of `mus`, 0 < mu <= |edges|, from the
    walk's points and the rank C_E and floor read off them, all kept in the
    code's one preparation (`observation_points`), looked up when the first
    is asked for; rank C_E and the floor are read on the first Delta."""
    f, prepared = code.field, observation_points(code, edges, H)
    base, points = prepared
    if prepared.ranks is None:
        rank_E = len(echelon(f, [v for _, v, _ in points]))
        # no observation leaves less than Z_E does: H(S | Z_W) >= H(S | Z_E)
        prepared.ranks = rank_E, len(base) + len(echelon(f, [h for *_, h in points])) - rank_E
    rank_E, floor = prepared.ranks
    spanning = None
    for mu in mus:
        if mu <= rank_E:  # nor less than rank [H; C_W] - |W| >= rank H - mu
            for W, d in full_rank_observations(f, base, points, (mu,), least=True):
                if d <= max(floor, len(base) - mu):
                    break
            yield d, W, False
        else:
            spanning = spanning or _first_spanning(f, code, edges, rank_E)
            yield floor, spanning(mu), True


def _first_spanning(f, code, edges, rank_E):
    """mu -> the first mu-subset of `edges` in lexicographic order whose
    coding vectors span C_E (of rank rank_E < mu), from one reduction pass.
    Taking each edge in turn while the positions left can still lift the
    chosen ones to rank_E takes every edge outside the span of those before
    it (a new edge), whatever mu is, and the first mu - rank_E others: an
    edge skipped lies in the span of those chosen before it, so the chosen
    edges and every later edge always still span C_E."""
    new, basis = [], []
    for i, e in enumerate(edges):
        if len(basis) == rank_E:  # every later edge is in the span
            break
        step = reduce_row(f, basis, code.global_vectors[e])
        if step:
            basis.append(step)
            new.append(i)
    others = [i for i in range(len(edges)) if i not in new]

    def witness(mu):  # up to the (mu - rank_E)-th other edge, then the new edges after it
        last = others[mu - rank_E - 1]
        return edges[:last + 1] + tuple(edges[i] for i in new if i > last)
    return witness


def equivocation_sweep(H: FMatrix, code: NetworkCode, mu_max: int,
                       restricted=None) -> EquivocationReport:
    """Delta(mu) for mu = 0..mu_max plus the network d_r profile, with one
    admission, and one preparation of the walk's points if mu_max > 0."""
    edges = admit_wiretap(H, code, mu_max, restricted, name="mu_max")
    if mu_max > len(edges):  # equivocation_rank's refusal of the first mu past |E|
        raise DimensionMismatch(f"mu={len(edges) + 1} exceeds {len(edges)} wiretappable edges")
    k, report, mus = H.rows, EquivocationReport(), range(1, mu_max + 1)
    report.delta[0], report.witnesses[0], report.flagged[0] = k, (), False
    for mu, result in zip(mus, _deltas(H, code, edges, mus)):  # an empty mus asks for none
        report.delta[mu], report.witnesses[mu], report.flagged[mu] = result
    for r in range(k + 1):
        for mu in range(mu_max + 1):
            if report.delta[mu] == k - r:
                report.d_profile[r] = mu
                break
    return report


def network_dr_profile(H: FMatrix, code: NetworkCode, restricted=None):
    """d_r = smallest mu with Delta(mu) = k - r; absent values are omitted."""
    edges = wiretappable_edges(code, restricted)
    report = equivocation_sweep(H, code, len(edges), restricted)
    return report.d_profile


def equivocation_wtc2(H: FMatrix, mu: int) -> int:
    """Classical wiretap-channel-II equivocation:
    min over |U| = n - mu of the rank of the columns of H indexed by U."""
    check_budget(mu)
    n = H.cols
    if mu >= n:
        return 0
    best = H.rows
    for U in combinations(range(n), n - mu):
        r = H.submatrix_columns(U).rank()
        if r < best:
            best = r
            if best == 0:
                break
    return best


def equivocation_underestimated(k: int, lam: int, mu: int) -> int:
    """Leakage for a wiretapper stronger than designed for: k - (mu - lambda),
    clamped at zero.  Valid for designs with perfect secrecy at lambda."""
    if lam < 0 or mu < lam:
        raise BadBudgets(f"need 0 <= lambda <= mu, got lambda={lam}, mu={mu}")
    return max(k - (mu - lam), 0)


def equivocation_restricted_cut(H: FMatrix, mu: int, code: NetworkCode, cut_edges) -> int:
    """Wiretapper restricted to a decodable cut of n edges, whose coding
    matrix must be invertible: the coset code behaves exactly as on the
    wiretap channel of type II.  H is the coset code in cut coordinates."""
    admit_wiretap(H, code, mu, cut_edges)
    C = code.coding_matrix(cut_edges)
    if C.rows != C.cols or C.rank() != C.rows:
        raise CutNotInvertible(f"cut {tuple(cut_edges)} has singular coding matrix")
    return equivocation_wtc2(H, mu)


def generalized_hamming_weights(C_generator: FMatrix):
    """Brute-force d_1..d_k: minimum support of an r-dimensional subcode.

    The support of a subcode is the union of the supports of any basis, so we
    minimize over independent r-subsets of codewords.
    """
    G = C_generator
    k = G.rows
    if G.rank() != k:
        raise SingularMatrix("generator must have full row rank", rank=G.rank())
    f = G.field
    q = f.order
    if q ** k > GHW_CODEWORD_CAP:
        raise CapExceeded(f"q^k = {q ** k} exceeds {GHW_CODEWORD_CAP = }")
    codewords = []
    for msg_code in range(1, q ** k):
        msg = []
        v = msg_code
        for _ in range(k):
            msg.append(v % q)
            v //= q
        codewords.append(tuple(combination(f, msg, G.data, G.cols)))
    weights = []
    for r in range(1, k + 1):
        if comb(len(codewords), r) > GHW_CODEWORD_CAP:
            raise CapExceeded(
                f"choose({len(codewords)}, {r}) exceeds {GHW_CODEWORD_CAP = }")
        best = None
        for subset in combinations(codewords, r):
            if len(echelon(f, subset)) != r:
                continue
            support = set()
            for word in subset:
                support.update(i for i, x in enumerate(word) if x)
            if best is None or len(support) < best:
                best = len(support)
        weights.append(best)
    return weights


def wei_consistency_check(C_generator: FMatrix, mu: int, delta: int) -> bool:
    """Check d_{n-mu-Delta} <= n - mu < d_{n-mu-Delta+1} with the conventions
    d_0 = 0 and d_{k+1} = infinity (restricted-to-cut regime)."""
    n = C_generator.cols
    k = C_generator.rows
    d = generalized_hamming_weights(C_generator)

    def d_at(i):
        if i <= 0:
            return 0
        if i > k:
            return float("inf")
        return d[i - 1]

    idx = n - mu - delta
    return d_at(idx) <= n - mu < d_at(idx + 1)
