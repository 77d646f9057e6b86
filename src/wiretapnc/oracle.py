"""Brute-force entropy ground truth for every security and equivocation claim.

Enumerates every (secret, kernel-coefficient) pair exactly (no sampling, no
PRNG), tabulates exact joint counts of (S, Z_W), and computes conditional
entropies in base-q logarithms.  For linear schemes the results are integers;
a value more than 1e-9 from an integer raises InvariantViolated.  This is the
only brute-force path, and it shares no code with the rank formula.  A numpy
counting path accelerates prime fields and characteristic-2 fields; the
exactness is unchanged since only integer counts are involved.
"""

from __future__ import annotations

import math
import os
from itertools import combinations

import numpy as np

from .coset import CosetCode
from .exceptions import EnumerationTooLarge, InvariantViolated
from .fmatrix import FMatrix
from .netgraph import NetworkCode
from .securecode import wiretappable_edges

DEFAULT_ENUM_CAP = 10 ** 7
SNAP_TOL = 1e-9


def enumeration_cap() -> int:
    return int(os.environ.get("WIRETAP_NC_ENUM_CAP", DEFAULT_ENUM_CAP))


def _mixed_radix(count, q, length):
    """All tuples over range(q) of the given length, least significant first."""
    for code in range(count):
        t = []
        v = code
        for _ in range(length):
            t.append(v % q)
            v //= q
        yield tuple(t)


def _coset_table(H: FMatrix):
    """List of (s_tuple, y_tuple) over all (secret, randomness) pairs."""
    code = CosetCode(H)
    q = H.field.order
    k, n = code.k, code.n
    if q ** n > enumeration_cap():
        raise EnumerationTooLarge(f"q^n = {q ** n} exceeds enumeration cap")
    table = []
    for s in _mixed_radix(q ** k, q, k):
        for r in _mixed_radix(q ** (n - k), q, n - k):
            table.append((s, tuple(code.encode_with_randomness(list(s), list(r)))))
    return table


def _entropy_q(counts, total, q):
    """H of a count table in base-q symbols: log_q total - sum c log_q c / total."""
    logq = math.log(q)
    acc = 0.0
    for c in counts:
        if c > 1:
            acc += c * math.log(c)
    return (math.log(total) - acc / total) / logq if total > 1 else 0.0


def snap_integer(value: float) -> int:
    nearest = round(value)
    if abs(value - nearest) >= SNAP_TOL:
        raise InvariantViolated(
            f"entropy {value} is not integral for a linear scheme", witness=value
        )
    return int(nearest)


class CosetChannelOracle:
    """Shared enumeration state for one (H, network code) pair.

    Precomputes the full channel-word table once; per-observation entropies
    are then exact count aggregations.
    """

    def __init__(self, H: FMatrix, code: NetworkCode):
        self.H = H
        self.code = code
        self.field = H.field
        self.q = self.field.order
        self.k = H.rows
        self.n = H.cols
        table = _coset_table(H)
        self.total = len(table)
        self._np = self._try_numpy(table)
        if self._np is None:
            self._s_codes = [self._tuple_code(s) for s, _ in table]
            self._words = [y for _, y in table]

    def _tuple_code(self, t):
        code = 0
        for x in reversed(t):
            code = code * self.q + x
        return code

    def _try_numpy(self, table):
        f = self.field
        if f.m > 1 and f.p != 2:
            return None
        if f.p == 2 and f.m > 1 and f.order > 512:
            return None
        words = np.array([y for _, y in table], dtype=np.int64)
        s_codes = np.array([self._tuple_code(s) for s, _ in table], dtype=np.int64)
        mul_table = None
        if f.m > 1:  # characteristic 2: addition is XOR on encodings
            mul_table = np.array(
                [[f.mul(a, b) for b in range(f.order)] for a in range(f.order)],
                dtype=np.int64,
            )
        return words, s_codes, mul_table

    def _observe(self, C_rows):
        """Per-outcome observation codes Z encoded as integers, plus S codes."""
        mu = len(C_rows)
        if mu == 0:
            if self._np is not None:
                return np.zeros(self.total, dtype=np.int64), self._np[1]
            return [0] * self.total, self._s_codes
        if self._np is not None:
            words, s_codes, mul_table = self._np
            f = self.field
            if f.m == 1:
                Z = (words @ np.array(C_rows, dtype=np.int64).T) % f.p
            else:
                Z = np.zeros((words.shape[0], mu), dtype=np.int64)
                for i, row in enumerate(C_rows):
                    acc = np.zeros(words.shape[0], dtype=np.int64)
                    for j, c in enumerate(row):
                        if c:
                            acc ^= mul_table[c, words[:, j]]
                    Z[:, i] = acc
            radix = self.q ** np.arange(mu, dtype=np.int64)
            return Z @ radix, s_codes
        f = self.field
        z_codes = []
        for y in self._words:
            code = 0
            for row in reversed(C_rows):
                code = code * self.q + _dot_int(f, row, y)
            z_codes.append(code)
        return z_codes, self._s_codes

    def entropy_terms(self, W):
        """Exact H(S|Z_W), H(Y|Z_W), H(Y|S Z_W) and H(Z) in q-ary units.

        Every (s, randomness) outcome is equally likely and determines Y
        uniquely, so all terms reduce to H(Z) and H(S, Z).
        """
        W = tuple(W)
        C_rows = [self.code.global_vectors[eid] for eid in W]
        z_codes, s_codes = self._observe(C_rows)
        if self._np is not None:
            _, z_counts = np.unique(z_codes, return_counts=True)
            joint = s_codes * (self.q ** len(W)) + z_codes
            _, sz_counts = np.unique(joint, return_counts=True)
            z_counts = z_counts.tolist()
            sz_counts = sz_counts.tolist()
        else:
            zc, szc = {}, {}
            for s, z in zip(s_codes, z_codes):
                zc[z] = zc.get(z, 0) + 1
                szc[(s, z)] = szc.get((s, z), 0) + 1
            z_counts = list(zc.values())
            sz_counts = list(szc.values())
        h_z = _entropy_q(z_counts, self.total, self.q)
        h_sz = _entropy_q(sz_counts, self.total, self.q)
        n_sym = math.log(self.total) / math.log(self.q)
        return {
            "H(S|Z)": h_sz - h_z,
            "H(Y|Z)": n_sym - h_z,
            "H(Y|SZ)": n_sym - h_sz,
            "H(Z)": h_z,
        }

    def secret_equivocation(self, W) -> int:
        return snap_integer(self.entropy_terms(W)["H(S|Z)"])


def _dot_int(f, a, b):
    acc = 0
    for x, y in zip(a, b):
        if x and y:
            acc = f.add(acc, f.mul(x, y))
    return acc


def min_equivocation_bruteforce(H: FMatrix, code: NetworkCode, mu: int,
                                restricted=None):
    """Exact Delta(mu) = min over |W| = mu of H(S|Z_W), with witness.

    The independent ground truth for the rank formula.
    """
    edges = wiretappable_edges(code, restricted)
    if mu == 0:
        return H.rows, ()
    oracle = CosetChannelOracle(H, code)
    best, witness = None, None
    for W in combinations(edges, mu):
        value = oracle.secret_equivocation(W)
        if best is None or value < best:
            best, witness = value, W
            if best == 0:
                break
    return best, witness
