"""Brute-force entropy ground truth for every security and equivocation claim.

Enumerates every (secret, randomness) outcome exactly (no sampling, no PRNG),
counts the joint values of (S, Z_W), and reads each entropy off the counts
exactly: Y is uniform on F_q^n and Z_W is linear in Y, so each count table
must be uniform on q^j cells, and its entropy is then the integer j; any
other table raises InvariantViolated.  This is the only brute-force path,
and it shares no code with the rank formula.

Tabulation.  Outcome t = 0..q^n - 1 is u = [s r] whose elements' base-p
digits are the base-p digits of t, s first.  Its word is y = u G, with G the
coset code's generator (`CosetCode.generator`), and edge e carries
y . g_e = sum_i u_i c_i with c_i = G_i . g_e in GF(q).  One field path
serves every GF(p^m): each symbol is held as its m base-p digits, so adding
a field element is adding digits mod p, and the table grows one base-p digit
d of t at a time, table[v p^d + t] = table[t] + v x^l c_i for d = i m + l,
in the smallest unsigned dtype that holds 2p.  Multiplying by a fixed element
is GF(p)-linear on digits, so the digits of every x^l c_i are one small
integer matrix mod p, made once from the c_i, computed in the field.  The same
recursion, on H's rows in a table of their own, dropped after the check,
gives every outcome's syndrome H y, which must equal its secret: the oracle
checks the encoder instead of trusting it.

Counting.  Observations of one size are counted a chunk at a time, in
`combinations` order, and the Delta(mu) search stops after the chunk that
holds the first zero.  Each row of a chunk packs its edges' symbols, then the
secret, into one code, offset by the row.  `bincount` counts every (S, Z)
cell of the chunk, coded in the narrowest unsigned dtype that holds them all
and cast to intp CELL_BUDGET codes at a time, when a row has at most q cells
per outcome and CELL_BUDGET cells; one sort of int64 codes counts the others.
Z's counts are the sums over the secret digit, and a row's counts sum to
q^n, so they are equal iff max(count) * cells = q^n.

Keeping.  `min_equivocation_bruteforce` takes its oracle from the code
(`NetworkCode.prepared` says how long it is kept), so every mu and every
restricted set is counted from one table of every edge, and a changed
vector makes the table, and its syndrome check, again.  An oracle neither
keeps nor builds an int64 array per outcome: its symbol table and its secret
column (0..q^k - 1 tiled) are in the smallest unsigned dtypes that hold q - 1
and q^k - 1.  An oracle built directly, `CosetChannelOracle(H, code)`, is
always fresh.
"""

from __future__ import annotations

from itertools import combinations, islice

import numpy as np

from .coset import CosetCode
from .exceptions import CapExceeded, DimensionMismatch, InvariantViolated
from .fmatrix import FMatrix
from .netgraph import NetworkCode
from .securecode import admit_deltas, admit_wiretap

ENUM_CAP = 10 ** 7  # q^n outcomes one oracle may enumerate
CELL_BUDGET = 1 << 16  # codes or count cells in one chunk, whatever |W|
CODE_LIMIT = 1 << 62  # packed codes stay below this, so int64 never wraps


def _digit_matrix(field, rows):
    """GF(p) matrix of u -> u A for the GF(p^m) matrix A with these rows, at
    least one: row i m + l holds the base-p digits of x^l A[i][j] for every
    column j."""
    p, m = field.p, field.m
    place = [p ** d for d in range(m)]
    return np.array([[field.mul(a, unit) // w % p for a in row for w in place]
                     for row in rows for unit in place], dtype=np.int64)


class CosetChannelOracle:
    """Shared enumeration state for one (H, network code) pair.

    Tabulates the symbol of every edge for every outcome once; per-observation
    entropies are then exact count aggregations over that table.
    """

    def __init__(self, H: FMatrix, code: NetworkCode):
        admit_wiretap(H, code, 0)  # the H and code the rank formula admits
        self.field = H.field
        self.q = self.field.order
        self.k = H.rows
        self.n = H.cols
        generator = CosetCode(H).generator
        self.total = self.q ** self.n
        if self.total > ENUM_CAP:
            raise CapExceeded(f"q^n = {self.total} outcomes exceed {ENUM_CAP = }")
        # one row per edge, so an observation reads contiguous rows
        self._column = {eid: j for j, eid in enumerate(code.global_vectors)}
        secrets = self.q ** self.k
        self._secret = np.tile(np.arange(secrets, dtype=np.min_scalar_type(secrets - 1)),
                               self.q ** (self.n - self.k))  # t mod q^k for every t
        self._powers = self.q ** np.arange(self.n + 1, dtype=np.int64)
        self._symbols = self._tabulate(generator, list(code.global_vectors.values()) + list(H.data))

    def _tabulate(self, generator, columns):
        """The symbol of every outcome on each column: the global vectors,
        then H's rows, whose k symbols are the outcome's syndrome H y and must
        equal its secret.  H's rows are tabulated first, in a table of their
        own that the check drops.  Returns the global vectors' rows."""
        edges = len(self._column)
        self._check_syndromes(generator, columns[edges:])
        return self._symbol_rows(generator, columns[:edges])

    def _check_syndromes(self, generator, rows):
        table = self._symbol_rows(generator, rows)
        syndrome = np.zeros(self.total, dtype=self._secret.dtype)  # each partial sum is below q^k
        for j, row in enumerate(table):
            syndrome += row.astype(syndrome.dtype) * syndrome.dtype.type(self.q ** j)
        bad = np.flatnonzero(syndrome != self._secret)
        if bad.size:
            t = int(bad[0])
            u = [t // self.q ** i % self.q for i in range(self.n)]
            raise InvariantViolated(
                f"outcome {t} (s={u[:self.k]}, r={u[self.k:]}) encodes to a word "
                f"of syndrome {table[:, t].tolist()}, not its secret",
                witness=(u[:self.k], u[self.k:]))

    def _symbol_rows(self, generator, columns):
        """One row per column: over a prime field, the digit table itself."""
        f, total = self.field, self.total
        p, m = f.p, f.m
        width = len(columns) * m  # m base-p digit rows per column
        # row d = i m + l: the base-p digits of x^l c_i, which digit d of t adds
        channel = _digit_matrix(f, [[f.dot(g, c) for c in columns] for g in generator])
        digit = np.min_scalar_type(2 * p - 2)  # unsigned, holds a sum of two digits
        multiples = channel[:, :, None] * np.arange(1, p) % p
        multiples = multiples.astype(digit)[..., None]  # d -> (width, p - 1, 1)
        table = np.zeros((width, total), dtype=digit)
        size, wrap = 1, digit.type(p)
        for step in multiples:
            grown = table[:, size:p * size].reshape(width, p - 1, size)
            np.add(table[:, None, :size], step, out=grown)
            for row in grown:  # x - p wraps above x when x < p
                np.minimum(row, row - wrap, out=row)
            size *= p
        symbols = table[::m].astype(np.min_scalar_type(self.q - 1), copy=m > 1)  # m = 1: a view
        for j in range(1, m):
            symbols += table[j::m] * symbols.dtype.type(p ** j)
        return symbols

    def _dense(self, size):
        """Whether observations of this size are counted by bincount over
        their (S, Z) cells, at most q per outcome, rather than by one sort."""
        return self.q ** (size + self.k) <= min(CELL_BUDGET, self.q * self.total)

    def _chunk_rows(self, size):
        """How many observations of this size one chunk counts: CELL_BUDGET
        codes, or count cells when there are more of those."""
        cells = self.q ** (size + self.k) if self._dense(size) else 0
        return max(1, CELL_BUDGET // max(self.total, cells))

    def _exponents(self, observations):
        """j(S, Z) and j(Z) for each observation of one size, as int arrays:
        H(S, Z_W) and H(Z_W) in q-ary units.  Every (s, randomness) outcome is
        equally likely and determines Y uniquely, so these give every term.
        The first observation whose tables are not uniform on q^j cells
        raises InvariantViolated."""
        q, total, secrets = self.q, self.total, self.q ** self.k
        rows = len(observations)
        try:
            index = np.array([[self._column[e] for e in W] for W in observations], dtype=np.intp)
        except KeyError as unknown:
            raise DimensionMismatch(f"unknown edge {unknown.args[0]!r}") from None
        symbols = self._symbols[index]
        size = index.shape[1]
        dense = self._dense(size)
        # products and sums in place: numpy < 2 and >= 2 widen temporaries differently
        width = np.min_scalar_type(rows * q ** size * secrets) if dense else np.int64
        code, bound = np.zeros((rows, total), dtype=width), 1
        for j in range(size):
            if rows * bound * q * secrets > CODE_LIMIT:  # re-index densely
                code = np.unique(code, return_inverse=True)[1].reshape(rows, total)
                bound = int(code.max()) + 1
            code *= q
            code += symbols[:, j]
            bound *= q
        code += np.arange(0, rows * bound, bound, dtype=width)[:, None]
        code *= secrets
        code += self._secret  # (row, Z, S) in mixed radix
        if dense:
            code, cells = code.ravel(), rows * bound * secrets
            counts = sum(np.bincount(code[i:i + CELL_BUDGET], minlength=cells)
                         for i in range(0, code.size, CELL_BUDGET))
            counts = counts.reshape(rows, bound, secrets)
            tables = (counts.reshape(rows, -1), counts.sum(axis=2))
            stats = [(t.max(axis=1), (t != 0).sum(axis=1)) for t in tables]
        else:
            code, counts = np.unique(code, return_counts=True)
            z = code // secrets  # row * bound + Z, ascending
            first = np.empty(z.size, dtype=bool)
            first[0] = True
            np.not_equal(z[1:], z[:-1], out=first[1:])
            zfirst = np.flatnonzero(first)
            stats = []
            for c, keys in ((counts, z), (np.add.reduceat(counts, zfirst), z[zfirst])):
                starts = np.searchsorted(keys, np.arange(0, rows * bound, bound))
                stats.append((np.maximum.reduceat(c, starts), np.diff(starts, append=c.size)))
        exponents, bad = [], np.zeros(rows, dtype=bool)
        for top, cells in stats:
            j = self._powers.searchsorted(cells)
            bad |= (top * cells != total) | (self._powers[j] != cells)
            exponents.append(j)
        if bad.any():
            i = int(bad.argmax())
            W = observations[i]
            for name, (top, cells), j in zip(("(S, Z)", "Z"), stats, exponents):
                if top[i] * cells[i] != total:
                    raise InvariantViolated(
                        f"{name} counts of W={W} are not uniform: {cells[i]} cells "
                        f"hold {total} outcomes, up to {top[i]} each", witness=W)
                if self._powers[j[i]] != cells[i]:
                    raise InvariantViolated(
                        f"{name} support of W={W} has {cells[i]} cells, not a "
                        f"power of q={q}", witness=W)
        return exponents

    def entropy_terms(self, W):
        """Exact H(S|Z_W), H(Y|Z_W), H(Y|S Z_W) and H(Z_W) in q-ary units, as ints."""
        h_sz, h_z = (int(j[0]) for j in self._exponents([tuple(W)]))
        return {
            "H(S|Z)": h_sz - h_z,
            "H(Y|Z)": self.n - h_z,
            "H(Y|SZ)": self.n - h_sz,
            "H(Z)": h_z,
        }


def min_equivocation_bruteforce(H: FMatrix, code: NetworkCode, mu: int,
                                restricted=None):
    """Exact Delta(mu) = min over |W| = mu of H(S|Z_W), with witness: the
    first minimiser in `combinations` order.

    The independent ground truth for the rank formula.  Its admission
    (`admit_deltas`) and the mu = 0 answer come first; then the oracle kept
    on the code is read (`NetworkCode.prepared`); a table ENUM_CAP refuses
    is not kept.
    """
    edges = admit_deltas(H, code, (mu,), restricted)
    if mu == 0:
        return H.rows, ()
    oracle = code.prepared("oracle", H.data, lambda: CosetChannelOracle(H, code))
    observations, rows = combinations(edges, mu), oracle._chunk_rows(mu)
    best, witness = None, None
    while best != 0 and (chunk := list(islice(observations, rows))):
        h_sz, h_z = oracle._exponents(chunk)
        values = h_sz - h_z
        i = int(values.argmin())
        if best is None or values[i] < best:
            best, witness = int(values[i]), chunk[i]
    return best, witness
