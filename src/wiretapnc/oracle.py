"""Brute-force entropy ground truth for every security and equivocation claim.

Enumerates every (secret, randomness) outcome exactly (no sampling, no PRNG),
counts the joint values of (S, Z_W), and reads each entropy off the counts
exactly: Y is uniform on F_q^n and Z_W is linear in Y, so each count table
must be uniform on q^j cells, and its entropy is then the integer j; any
other table raises InvariantViolated.  This is the only brute-force path,
and it shares no code with the rank formula.

One path serves every field GF(p^m).  Multiplying by a fixed element is a
GF(p)-linear map on the m base-p digits of an element's encoding, so the
channel -- outcome u = [s r] to word y = u [P; N] (P the particular solutions
of the unit secrets, N the kernel basis) to the symbol y . g_e of each edge --
is one integer matrix mod p.  The base-p digits of the outcome index t are the
digits of u, s first, so the table of edge symbols for t = 0..q^n - 1 is that
matrix applied to t's digits, evaluated in blocks of BLOCK_ROWS outcomes.  The
same product gives every outcome's syndrome H y, which must equal its secret:
the oracle checks its reconstruction of the encoder instead of trusting it.
"""

from __future__ import annotations

import os
from itertools import combinations

import numpy as np

from .coset import CosetCode
from .exceptions import BadEnvironment, DimensionMismatch, EnumerationTooLarge, InvariantViolated
from .fmatrix import FMatrix
from .netgraph import NetworkCode
from .securecode import check_budget, wiretappable_edges

DEFAULT_ENUM_CAP = 10 ** 7
BLOCK_ROWS = 1 << 13
CODE_LIMIT = 1 << 62  # packed codes stay below this, so int64 never wraps


def enumeration_cap() -> int:
    raw = os.environ.get("WIRETAP_NC_ENUM_CAP", str(DEFAULT_ENUM_CAP))
    if not raw.isdecimal() or int(raw) < 1:
        raise BadEnvironment(
            f"WIRETAP_NC_ENUM_CAP must be a positive integer, got {raw!r}")
    return int(raw)


def _digit_matrix(field, rows, cols):
    """GF(p) matrix of u -> u A for the GF(p^m) matrix A with these rows:
    row i m + l holds the base-p digits of x^l A[i][j] for every column j."""
    p, m = field.p, field.m
    place = [p ** d for d in range(m)]
    return np.array(
        [[field.mul(a, unit) // w % p for a in row for w in place]
         for row in rows for unit in place],
        dtype=np.int64,
    ).reshape(len(rows) * m, cols * m)


def _pack(code, bound, digits):
    """Append (values, radix) digits to a mixed-radix code below `bound`,
    re-indexing the code densely first whenever a digit could overflow."""
    for values, radix in digits:
        if bound * radix > CODE_LIMIT:
            _, code = np.unique(code, return_inverse=True)
            bound = code.size
        code = code * radix + values
        bound *= radix
    return code, bound


def _exponent(counts, q, table, W):
    """j for a count table uniform on q^j cells, the only tables linear views give."""
    unequal = np.flatnonzero(counts != counts[0])
    if unequal.size:
        raise InvariantViolated(
            f"{table} counts of W={W} are not uniform: {counts[0]} != "
            f"{counts[unequal[0]]}", witness=W)
    j = 0
    while q ** j < counts.size:
        j += 1
    if q ** j != counts.size:
        raise InvariantViolated(
            f"{table} support of W={W} has {counts.size} cells, not a power "
            f"of q={q}", witness=W)
    return j


class CosetChannelOracle:
    """Shared enumeration state for one (H, network code) pair.

    Tabulates the symbol of every edge for every outcome once; per-observation
    entropies are then exact count aggregations over that table.
    """

    def __init__(self, H: FMatrix, code: NetworkCode):
        self.H = H
        self.code = code
        self.field = H.field
        self.q = self.field.order
        self.k = H.rows
        self.n = H.cols
        coset = CosetCode(H)
        self.total = self.q ** self.n
        cap = enumeration_cap()
        if self.total > cap:
            raise EnumerationTooLarge(
                f"q^n = {self.total} outcomes exceed the enumeration cap {cap} "
                "(WIRETAP_NC_ENUM_CAP)")
        # one row per edge, so an observation reads contiguous rows
        self._column = {eid: j for j, eid in enumerate(code.global_vectors)}
        self._symbols = np.empty((len(self._column), self.total),
                                 dtype=np.min_scalar_type(self.q - 1))
        units = [[int(i == j) for j in range(self.k)] for i in range(self.k)]
        generator = [coset.particular_solution(s) for s in units] + list(coset.kernel.data)
        self._tabulate(generator, list(code.global_vectors.values()) + list(H.data))
        self._secret = np.arange(self.total, dtype=np.int64) % self.q ** self.k

    def _tabulate(self, generator, columns):
        """Fill the edge-symbol table with t -> digits(t) [P; N] [C | H^T] mod p,
        C having the global vectors as columns; the last k symbols of each
        outcome are its syndrome H y, which must equal its secret."""
        f, n, k = self.field, self.n, self.k
        p, m = f.p, f.m
        transposed = [[col[i] for col in columns] for i in range(n)]
        channel = _digit_matrix(f, generator, n) @ _digit_matrix(f, transposed, len(columns)) % p
        place = p ** np.arange(m, dtype=np.int64)
        edges = len(self._column)
        for start in range(0, self.total, BLOCK_ROWS):
            rows = min(BLOCK_ROWS, self.total - start)
            rest = np.arange(start, start + rows, dtype=np.int64)
            digits = np.empty((rows, n * m), dtype=np.int64)
            for j in range(n * m):
                rest, digits[:, j] = np.divmod(rest, p)
            out = (digits @ channel % p).reshape(rows, len(columns), m) @ place
            u = digits.reshape(rows, n, m) @ place
            bad = np.flatnonzero((out[:, edges:] != u[:, :k]).any(axis=1))
            if bad.size:
                i = bad[0]
                s, r = u[i, :k].tolist(), u[i, k:].tolist()
                raise InvariantViolated(
                    f"outcome {start + i} (s={s}, r={r}) encodes to a word of "
                    f"syndrome {out[i, edges:].tolist()}, not its secret",
                    witness=(s, r))
            self._symbols[:, start:start + rows] = out[:, :edges].T

    def entropy_terms(self, W):
        """Exact H(S|Z_W), H(Y|Z_W), H(Y|S Z_W) and H(Z) in q-ary units, as ints.

        Every (s, randomness) outcome is equally likely and determines Y
        uniquely, so all terms reduce to H(Z) and H(S, Z).  The secret is the
        last digit of each (S, Z) code, so one sort counts (S, Z), and Z's
        counts are the sums over runs of equal code // q^k.  Each table must
        be uniform on q^j cells, and its entropy is then j.
        """
        q, total, secrets = self.q, self.total, self.q ** self.k
        z, bound = _pack(np.zeros(total, dtype=np.int64), 1,
                         ((self._symbols[self._column[eid]], q) for eid in W))
        sz, _ = _pack(z, bound, [(self._secret, secrets)])
        codes, sz_counts = np.unique(sz, return_counts=True)
        z_codes = codes // secrets
        first = np.ones(z_codes.size, dtype=bool)  # first code of each Z run
        first[1:] = z_codes[1:] != z_codes[:-1]
        h_sz = _exponent(sz_counts, q, "(S, Z)", W)
        h_z = _exponent(np.add.reduceat(sz_counts, np.flatnonzero(first)), q, "Z", W)
        return {
            "H(S|Z)": h_sz - h_z,
            "H(Y|Z)": self.n - h_z,
            "H(Y|SZ)": self.n - h_sz,
            "H(Z)": h_z,
        }

    def secret_equivocation(self, W) -> int:
        return self.entropy_terms(W)["H(S|Z)"]


def min_equivocation_bruteforce(H: FMatrix, code: NetworkCode, mu: int,
                                restricted=None):
    """Exact Delta(mu) = min over |W| = mu of H(S|Z_W), with witness.

    The independent ground truth for the rank formula.
    """
    check_budget(mu)
    edges = wiretappable_edges(code, restricted)
    if mu == 0:
        return H.rows, ()
    if mu > len(edges):
        raise DimensionMismatch(f"mu={mu} exceeds {len(edges)} wiretappable edges")
    oracle = CosetChannelOracle(H, code)
    best, witness = None, None
    for W in combinations(edges, mu):
        value = oracle.secret_equivocation(W)
        if best is None or value < best:
            best, witness = value, W
            if best == 0:
                break
    return best, witness
