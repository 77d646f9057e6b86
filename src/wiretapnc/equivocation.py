"""Exact wiretapper-equivocation analysis via the rank formula.

Y is uniform on F_q^n, so the equivocation of an observation W is
H(S | Z_W) = rank [H; C_W] - rank C_W, for full-rank and rank-deficient C_W
alike.  Delta(mu) is its minimum over all W of size mu, attained where C_W
has the largest rank, min(mu, rank C_E).  For mu <= rank C_E it is a
branch-and-bound over the walk of sets of mu distinct coding-vector
directions (`securecode.full_rank_observations`), which stops at the floor
max(rank H - mu, rank [H; C_E] - rank C_E); for mu > rank C_E every
largest-rank W spans C_E, so Delta(mu) = rank [H; C_E] - rank C_E, flagged.
The witness is the first minimiser, in lexicographic order, among the
largest-rank edge subsets: the smallest representative tuple of a
minimising point set, or the first mu-subset spanning C_E.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .exceptions import (
    BadBudgets,
    CutNotInvertible,
    DimensionMismatch,
    SingularMatrix,
    TooLargeForExhaustive,
)
from .fmatrix import FMatrix, combination, echelon, reduce_row
from .netgraph import NetworkCode
from .securecode import admit_wiretap, full_rank_observations, wiretappable_edges

GHW_CODEWORD_CAP = 10 ** 6


class EquivocationReport:
    __slots__ = ("k", "delta", "witnesses", "flagged", "d_profile")

    def __init__(self, k: int, delta: dict | None = None, witnesses: dict | None = None,
                 flagged: dict | None = None, d_profile: dict | None = None):
        self.k = k
        self.delta = {} if delta is None else delta  # mu -> Delta(mu)
        self.witnesses = {} if witnesses is None else witnesses  # mu -> minimizing W
        self.flagged = {} if flagged is None else flagged  # mu -> True if no full-rank W
        self.d_profile = {} if d_profile is None else d_profile  # r -> d_r


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
    f = code.field
    rows = [code.global_vectors[e] for e in edges]
    rank_E = len(echelon(f, rows))
    # no observation leaves less than Z_E does: H(S | Z_W) >= H(S | Z_E)
    floor = len(echelon(f, [*H.data, *rows])) - rank_E
    if mu > rank_E:
        # the first mu-subset spanning C_E: take each edge in turn while the
        # positions left can still lift the chosen ones to rank_E.  An edge
        # skipped that way lies in the span of those chosen before it, so
        # the chosen edges and every later edge always still span C_E.
        chosen, basis = [], []
        for e, v in zip(edges, rows):
            step = reduce_row(f, basis, v)
            if len(chosen) < mu and rank_E - len(basis) - bool(step) < mu - len(chosen):
                chosen.append(e)
                basis += [step] if step else []
        return floor, tuple(chosen), True
    # nor less than rank [H; C_W] - |W| >= rank H - mu
    floor = max(floor, len(echelon(f, H.data)) - mu)
    for W, d in full_rank_observations(code, edges, (mu,), H, least=True):
        if d <= floor:
            break
    return d, W, False


def equivocation_sweep(H: FMatrix, code: NetworkCode, mu_max: int,
                       restricted=None) -> EquivocationReport:
    """Delta(mu) for mu = 0..mu_max plus the network d_r profile."""
    admit_wiretap(H, code, mu_max, restricted, name="mu_max")
    k = H.rows
    report = EquivocationReport(k=k)
    for mu in range(mu_max + 1):
        delta, witness, flagged = equivocation_rank(H, code, mu, restricted)
        report.delta[mu] = delta
        report.witnesses[mu] = witness
        report.flagged[mu] = flagged
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


def equivocation_restricted_cut(H: FMatrix, mu: int, code: NetworkCode = None,
                                cut_edges=None) -> int:
    """Wiretapper restricted to a decodable cut of n edges: the coset code
    behaves exactly as on the wiretap channel of type II.

    When the cut is supplied, its coding matrix must be invertible."""
    if code is not None and cut_edges is not None:
        C = code.coding_matrix(cut_edges)
        if C.rows != C.cols or C.rank() != C.rows:
            raise CutNotInvertible(
                f"cut {tuple(cut_edges)} has singular coding matrix"
            )
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
        raise TooLargeForExhaustive(f"q^k = {q ** k} exceeds {GHW_CODEWORD_CAP = }")
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
            raise TooLargeForExhaustive(
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
