"""Linear sketches over sparse integer vectors indexed by [1, N].

``SampleRecovery`` holds, in one flat numpy array, L peelable grids of
one-sparse cells, one per subsampling level and all of one geometry, so
that one update is a handful of vectorised operations.  A hash sends
each index to a deepest level l* with P[l* >= l] = 2^-l, capped at L-1,
and the index is written once, into the grid of level l*; an exact
counter per level counts the net indices written there.  By linearity
the grids of levels l..L-1 sum to a grid of the subsample
{i : l*(i) >= l}.  The sum over all levels peels to the exact support
while that fits the grid's capacity; past it ``recover(need)`` peels the
shallowest subsample that fits.  This is the l0-sampler construction of
Cormode & Firmani ("A unifying framework for l0-sampling", 2014) on the
invertible Bloom lookup tables of Goodrich & Mitzenmacher (2011).  A
sketch without ``need`` has one level, a plain recovery grid.

A one-sparse cell is a (count, index-weighted sum, fingerprint) tuple
that recognises a vector with one nonzero entry.  Its fingerprints are
sums of count * r^i modulo two primes near N^2; the powers r^i come from
two tables of about sqrt(N) entries per prime (``PowTable``), and every
product mod p, count reduced mod p first, is one exact multiply
(``_mulmod_exact``): in int64 for p^2 < 2^63, through a float quotient
for p < 2^50 (dpsa up to n = 8 192), in Python ints past that.  Each
row hashes an index to one of B buckets with splitmix64 of the index
plus the row's key, so that buckets behave as independent uniform draws
on any support.  A grid is the R x B with the fewest cells whose
first-moment bound on a stalled peel (``stall_bound``) meets the target
(``grid_geometry``), so its size does not grow with N.  A grid peels a
block of rows at a time, and each one-sparse cell is subtracted as
stored from its index's buckets, so a peel computes fingerprints only
to verify cells.

All structures are linear: the state after a sequence of updates depends
only on the net vector, never on update order.  The fingerprint bases
r1, r2, the row keys and the depth key are blake2b hashes of the
sketch's seed (``derive_seed``'s chain), so a sketch loads neither
``numpy.random`` nor hashlib's OpenSSL backend.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import SketchFail

try:
    # CPython's own blake2, without hashlib's import of OpenSSL
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

_INT64_MAX = (1 << 63) - 1
# splitmix64's increment and multipliers (Steele, Lea & Flood, 2014),
# the bucket hash of every row
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class RecoveryFail(SketchFail):
    """Peeling stalled before the grid emptied."""


def _hash64(*parts) -> int:
    """Deterministic 64-bit hash of an arbitrary tuple of parts."""
    h = blake2b(repr(parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big")


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from an arbitrary tuple of parts."""
    return _hash64(*parts) >> 1


# Miller-Rabin with these bases is exact below this bound (Sorenson &
# Webster 2015), far above any prime an int64 sketch can use.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic primality test for 0 <= n < 3.3e24."""
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the exact Miller-Rabin range")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def nextprime(lower: int) -> int:
    """Smallest prime strictly above ``lower``."""
    if lower < 2:
        return 2
    n = lower + 1 + (lower % 2)  # first odd number above lower
    while not is_prime(n):
        n += 2
    return n


def _mulmod_exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a * b mod p elementwise for 0 <= a, b < p, exact.

    Where p^2 < 2^63 the int64 product is exact.  Below p < 2^50, a, b
    and p are exact doubles, and the two roundings of fl(a) * fl(b) / p
    move a * b / p < 2^50 by less than 2^50 * 2^-52 = 1/4, so its
    truncation q is off by at most one.  Then a * b - q * p lies in
    (-p, 2p), wrapping int64 arithmetic gives it exactly, and one masked
    correction each way brings it into [0, p).  Past 2^50, Python ints.
    """
    if p * p <= _INT64_MAX:
        return a * b % p
    if p >= 1 << 50:
        return np.array([int(x) * int(y) % p for x, y in zip(a, b)],
                        dtype=np.int64)
    q = (a.astype(np.float64) * b / p).astype(np.int64)
    r = a * b - q * p
    r[r < 0] += p
    r[r >= p] -= p
    return r


class PowTable:
    """r^i mod p for 0 <= i <= n from two tables of about sqrt(n) entries.

    With s = ceil(bits(n) / 2), ``lo[j] = r^j`` for j < 2^s and
    ``hi[j] = r^(j * 2^s)`` for j <= n >> s, so that
    r^i = lo[i & (2^s - 1)] * hi[i >> s] mod p.
    """

    def __init__(self, r: int, p: int, n: int):
        self.p = p
        self.shift = (n.bit_length() + 1) // 2
        self.mask = (1 << self.shift) - 1
        self.lo = self._powers(r, p, 1 << self.shift)
        self.hi = self._powers(pow(r, 1 << self.shift, p), p,
                               (n >> self.shift) + 1)

    @staticmethod
    def _powers(base: int, p: int, m: int) -> np.ndarray:
        out = [1] * m
        for j in range(1, m):
            out[j] = out[j - 1] * base % p
        return np.array(out, dtype=np.int64)

    def __call__(self, i: int) -> int:
        return (int(self.lo[i & self.mask]) * int(self.hi[i >> self.shift])
                % self.p)

    def gather(self, i: np.ndarray) -> np.ndarray:
        return _mulmod_exact(self.lo[i & self.mask], self.hi[i >> self.shift],
                             self.p)

    def words(self) -> int:
        return self.lo.size + self.hi.size


@functools.lru_cache(maxsize=64)
def fingerprint_prime(lower: int) -> int:
    """Smallest prime strictly above ``lower`` (cached)."""
    return nextprime(lower)


@dataclass(frozen=True)
class SampleOutcome:
    kind: str  # "index" | "fail" | "empty"
    index: int = 0

    @property
    def is_index(self) -> bool:
        return self.kind == "index"


INDEX = "index"
FAIL = "fail"
EMPTY = "empty"


# Q_s(B) is exact up to this many indices and bounded by the saddle
# point past it; the most rows ``grid_geometry`` considers.
_EXACT_STALL = 12
MAX_ROWS = 32
# ``_peel`` verifies a block of rows at once, as many as fit in this many
# cells and at least two: on dpsa's grids at n=600 and n=2000, at 1/6 of
# capacity and full, two rows a block peeled fastest of 1, 2, 3 and all
# 5, and a grid that fits whole peels fastest in one block
_PEEL_BLOCK = 1500


def _no_singleton_partitions() -> np.ndarray:
    """log P[s, j] for s, j <= ``_EXACT_STALL``, P[s, j] the partitions of
    s labelled indices into j blocks of at least two (associated
    Stirling numbers of the second kind)."""
    table = [[0] * (_EXACT_STALL + 1) for _ in range(_EXACT_STALL + 1)]
    table[0][0] = 1
    for s in range(2, _EXACT_STALL + 1):
        for j in range(1, s // 2 + 1):
            # index s joins one of the j blocks of the others, or pairs
            # with one of them to open a block
            table[s][j] = j * table[s - 1][j] + (s - 1) * table[s - 2][j - 1]
    with np.errstate(divide="ignore"):
        return np.log(np.array(table, dtype=np.float64))


_LOG_PARTITIONS = _no_singleton_partitions()


@functools.lru_cache(maxsize=4096)
def _exact_no_singleton(buckets: int) -> np.ndarray:
    """log Q_s(B) for s = 2..``_EXACT_STALL``, Q_s(B) the chance that s
    indices hashed uniformly into B buckets leave no bucket holding
    exactly one of them: sum over j of P[s, j] B (B-1) ... (B-j+1) / B^s,
    the assignments that fill j buckets with blocks of two or more,
    summed in logs, every term positive."""
    j = np.arange(_EXACT_STALL + 1)
    s = j[2:, None]
    with np.errstate(divide="ignore"):
        log_left = np.log(np.maximum(0.0, 1.0 - j[:-1] / buckets))
    log_falling = np.concatenate(([0.0], np.cumsum(log_left)))
    terms = _LOG_PARTITIONS[2:] + log_falling + (j - s) * math.log(buckets)
    top = terms.max(axis=1)
    out = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
    out.setflags(write=False)  # cached, so shared by every caller
    return out


def _log_e_t_minus_t(t: np.ndarray) -> np.ndarray:
    """log(e^t - t), computed without overflow or cancellation."""
    small = np.minimum(t, 1.0)
    big = np.maximum(t, 1.0)
    return np.where(t < 1.0, np.log1p(np.expm1(small) - small),
                    big + np.log1p(-big * np.exp(-big)))


@functools.lru_cache(maxsize=1)
def _saddle_table() -> tuple[np.ndarray, np.ndarray]:
    """(log g(t), log t) on a grid of t, g(t) = t(e^t - 1)/(e^t - t),
    which rises from t^2 near 0 to t for large t."""
    t = np.exp(np.linspace(math.log(1e-9), math.log(1e8), 4096))
    small = np.minimum(t, 1.0)
    big = np.maximum(t, 1.0)
    g = np.where(t < 1.0,
                 small * np.expm1(small) / (1.0 + np.expm1(small) - small),
                 big * -np.expm1(-big) / (1.0 - big * np.exp(-big)))
    return np.log(g), np.log(t)


def _saddle_no_singleton(s: np.ndarray, log_fact: np.ndarray,
                         buckets: int) -> np.ndarray:
    """log of s! (e^t - t)^B / (B^s t^s) >= log Q_s(B), elementwise, for
    ``log_fact`` = log s!.

    s! [z^s] (e^z - z)^B counts the assignments of s indices to B
    buckets with no singleton, and a power series with nonnegative
    coefficients has [z^s] f <= f(t) / t^s at every t > 0.  t solves
    t(e^t - 1)/(e^t - t) = s/B, the minimiser, read off a log-log table;
    any t > 0 gives a valid bound.
    """
    log_g, log_t = _saddle_table()
    log_b = math.log(buckets)
    t = np.exp(np.interp(np.log(s) - log_b, log_g, log_t))
    return np.minimum(0.0, log_fact + buckets * _log_e_t_minus_t(t)
                      - s * (log_b + np.log(t)))


@functools.lru_cache(maxsize=64)
def _stall_sizes(capacity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, log C(capacity, s), log s!) for s = 2..capacity."""
    j = np.arange(1, capacity + 1)
    log_j = np.log(j)
    out = (j[1:], np.cumsum(np.log(capacity - j + 1) - log_j)[1:],
           np.cumsum(log_j)[1:])
    for a in out:
        a.setflags(write=False)  # cached, so shared by every caller
    return out


def _log_no_singleton(capacity: int,
                      buckets: int) -> tuple[np.ndarray, np.ndarray]:
    """(log C(capacity, s), log Q_s(B)) for s = 2..capacity: exact up to
    ``_EXACT_STALL``, the saddle-point bound past it."""
    s, subsets, log_fact = _stall_sizes(capacity)
    small = s <= _EXACT_STALL
    q = np.empty(len(s))
    q[small] = _exact_no_singleton(buckets)[s[small] - 2]
    q[~small] = _saddle_no_singleton(s[~small], log_fact[~small], buckets)
    return subsets, q


def _log_sum_exp(x: np.ndarray) -> float:
    if not len(x):
        return -math.inf
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


@functools.lru_cache(maxsize=64)
def stall_bound(capacity: int, rows: int, buckets: int) -> float:
    """First-moment bound on the chance that peeling a grid of ``rows``
    rows of ``buckets`` buckets stalls on ``capacity`` indices.

    A peel stalls exactly when some s >= 2 of the indices leave no bucket
    holding exactly one of them in every row (a stopping set).  With
    independent uniform buckets that has probability Q_s(B)^R for a given
    set, so the chance is at most sum over s of C(capacity, s) Q_s(B)^R
    (Goodrich & Mitzenmacher, "Invertible Bloom Lookup Tables", 2011).
    """
    subsets, q = _log_no_singleton(capacity, buckets)
    log = _log_sum_exp(subsets + rows * q)
    return math.exp(log) if log < 700 else math.inf


@functools.lru_cache(maxsize=64)
def grid_geometry(capacity: int, target: float) -> tuple[int, int]:
    """(rows R, buckets per row B) of a recovery grid for ``capacity``
    indices: the smallest R * B, fewest rows on a tie, with R at most
    ``MAX_ROWS``, whose ``stall_bound`` is at most ``target``.

    The s = 2 term alone, C(capacity, 2) / B^R, gives each R its least B;
    the search steps B up from there, doubling the step, and bisects the
    last step.  Past the first R, an R is tried only if the largest B
    that would beat the best so far meets the bound; 4 rows go first, as
    they come close to the best at every capacity, so that this rules
    most other R out.  5 x 644 for dpsa at n=600, k=3 (capacity 1 800,
    target 2.8e-8); 7 x 17 for a pdpsa level grid at n=600, k=2
    (capacity 32, target 8.3e-6).
    """
    if capacity < 2:
        return 1, 1  # a lone index always peels
    log_target = math.log(target)

    def fits(rows: int, buckets: int) -> bool:
        subsets, q = _log_no_singleton(capacity, buckets)
        return _log_sum_exp(subsets + rows * q) <= log_target

    pairs = math.comb(capacity, 2)
    best = None
    for rows in (4, *range(1, 4), *range(5, MAX_ROWS + 1)):
        low = max(2, math.ceil((pairs / target) ** (1 / rows)))
        while low > 2 and pairs / (low - 1) ** rows <= target:
            low -= 1
        # the largest B that beats the best: a smaller R * B, or the same
        # with fewer rows
        high = None if best is None else (
            (best[0] * best[1] - (rows >= best[0])) // rows)
        if high is not None and (high < low or not fits(rows, high)):
            continue
        bad, step, good = low - 1, 1, low
        while not fits(rows, good):
            bad, step = good, 2 * step
            good = low + step - 1
            if high is not None:
                good = min(high, good)
        while good - bad > 1:
            mid = (good + bad) // 2
            if fits(rows, mid):
                good = mid
            else:
                bad = mid
        best = rows, good
    return best


@functools.lru_cache(maxsize=64)
def level_capacity(need: int, fail: float) -> int:
    """Smallest capacity C with P[Bin(C+1, 1/2) < need] <= ``fail``.

    ``recover(need)`` reads the shallowest level whose subsample holds at
    most C indices; the level above it holds more than C, and each of
    those reaches the next level with probability 1/2.  C = 32 for
    need = 5 at fail 8.3e-6 (pdpsa at n=600, k=2).
    """
    c = max(1, need - 1)
    while sum(math.comb(c + 1, j) for j in range(need)) / 2 ** (c + 1) \
            > fail:
        c += 1
    return c


def _binomial_tail(n: int, q: float, c: int) -> float:
    """P[Bin(n, q) > c] for 0 < q <= 1: 1 minus the terms up to c while
    the mean passes c, else the falling terms past c, summed until they
    no longer change the sum, so a tiny tail keeps its digits."""
    if c >= n or q == 1:
        return float(c < n)

    def term(j):
        return math.exp(math.lgamma(n + 1) - math.lgamma(j + 1)
                        - math.lgamma(n - j + 1) + j * math.log(q)
                        + (n - j) * math.log1p(-q))
    if n * q > c:
        return max(0.0, 1.0 - math.fsum(map(term, range(c + 1))))
    total = 0.0
    for t in map(term, range(c + 1, n + 1)):
        if total + t == total:
            break
        total += t
    return total


@functools.lru_cache(maxsize=64)
def level_count(n_indices: int, capacity: int, fail: float) -> int:
    """Fewest levels L with P[Bin(N, 2^-(L-1)) > C] <= ``fail``.

    The deepest level, L-1, holds a Bin(N, 2^-(L-1)) subsample of a
    support of N, so with this L it fits the level capacity C but with
    probability ``fail``: 7 levels for pdpsa at n=600, k=2 (C = 32, fail
    8.3e-6), 14 at n=10^5.
    """
    levels = 1
    while _binomial_tail(n_indices, 0.5 ** (levels - 1), capacity) > fail:
        levels += 1
    return levels


class SampleRecovery:
    """L level grids of one geometry, one linear structure.

    With ``need`` = m > 0 the level capacity C is the larger of
    ``capacity`` and C_m = ``level_capacity(m, sampler_fail)``, and L =
    ``level_count(N, C_m, sampler_fail)``, enough for any C >= C_m, so
    that a larger capacity widens the grids and never drops a level;
    with ``need`` = 0, C is ``capacity`` and L = 1.  sampler_fail
    defaults to delta / 2N, each index's share of delta.  Every grid is
    ``grid_geometry(C, f)`` for f the smaller of delta and sampler_fail
    (7 x 17 for pdpsa at n=600, k=2; 5 x 644 for dpsa at n=600, k=3),
    and ``stall_bound`` is the bound on a stalled peel of C indices that
    this grid meets.  All grids share one set of bucket hashes, so the
    grids of levels l..L-1 add up cell by cell.  ``support`` is an exact
    signed counter of net insertions, the l0 norm under valid +/-1
    streams; ``level_support[l]`` is the same counter over the indices
    whose deepest level is l.

    One-sparse verification uses two independent prime fingerprints,
    p1 = nextprime(max(N^2, 2^30)) and p2 = nextprime(p1): about 2^30 for
    a pdpsa vertex sketch, 3.2e10 (2^35) for the dpsa edge sketch at
    n=600 and 4.0e12 (2^42) at n=2000.  Stored fingerprints are reduced
    below their prime, so a sum over the levels stays within int64 while
    L * p2 < 2^63.  ``recover`` checks a row's buckets at once in int64,
    forming (count mod p) * r^i with ``_mulmod_exact``, so any int64
    count is checked exactly.
    """

    def __init__(self, n_indices: int, capacity: int, need: int,
                 seed: int, delta: float = 0.01,
                 sampler_fail: float | None = None):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if need < 0:
            raise ValueError("need must be >= 0")
        if n_indices < 0:
            raise ValueError("n_indices must be >= 0")
        self.n = n_indices
        self.capacity = capacity
        self.need = need
        self.seed = seed
        self.support = 0

        # by default each index's share of delta, as pdpsa gives its levels
        fail = (sampler_fail if sampler_fail is not None
                else delta / (2 * max(1, n_indices)))
        if need:
            least = level_capacity(need, fail)
            self.level_capacity = max(capacity, least)
            self.levels = level_count(n_indices, least, fail)
        else:
            self.level_capacity, self.levels = capacity, 1
        self.level_support = [0] * self.levels
        self.rows, self.buckets = grid_geometry(self.level_capacity,
                                                min(delta, fail))
        self.stall_bound = stall_bound(self.level_capacity, self.rows,
                                       self.buckets)

        self.p1 = fingerprint_prime(max(n_indices * n_indices, 1 << 30))
        self.p2 = fingerprint_prime(self.p1)
        if self.levels * self.p2 > _INT64_MAX:
            # a level sum adds one fingerprint below p2 per level
            raise ValueError(f"{n_indices} indices are too many for "
                             f"level grids")
        self._per_level = self.rows * self.buckets
        # fingerprint bases in [1, p), each from its own 64-bit hash of
        # the seed
        self.r1 = 1 + _hash64(seed, "r1") % (self.p1 - 1)
        self.r2 = 1 + _hash64(seed, "r2") % (self.p2 - 1)
        self.pow1 = PowTable(self.r1, self.p1, n_indices)
        self.pow2 = PowTable(self.r2, self.p2, n_indices)

        # one 64-bit bucket-hash key per row, shared by every level; the
        # hashes add splitmix64's increment to it once, here
        self.hash_keys = np.array(
            [_hash64(seed, "row-key", r) for r in range(self.rows)],
            dtype=np.uint64)
        self._keys = self.hash_keys + np.uint64(_GAMMA)
        self._row_keys = list(zip(range(0, self._per_level, self.buckets),
                                  self._keys.tolist()))
        # key of the hash that picks each index's deepest level
        self.depth_key = derive_seed(seed, "depth").to_bytes(8, "big")

        # (count, index, fp1, fp2) of every cell, level 0 first
        self.cells = np.zeros((4, self.levels * self._per_level),
                              dtype=np.int64)
        self.grids = self.cells.reshape(4, self.levels, self.rows,
                                        self.buckets)
        # the cell of bucket 0 of each row, at level 0
        self._row_cell0 = np.arange(self.rows) * self.buckets
        self._primes = np.array([[self.p1], [self.p2]], dtype=np.int64)

    # -- updates -----------------------------------------------------------

    def _depth(self, index: int) -> int:
        """Deepest level of ``index``: P[depth >= l] = 2^-l, capped.

        A keyed 64-bit hash, so that the levels of any set of indices
        behave as independent draws; a linear hash on a run of
        consecutive indices leaves subsamples far from binomial.
        """
        h = blake2b(int(index).to_bytes(8, "big"), digest_size=8,
                    key=self.depth_key).digest()
        return min(self.levels - 1, 64 - int.from_bytes(h, "big").bit_length())

    def _cells_of(self, index: int, level: int) -> np.ndarray:
        """Cell of ``index`` in each row of a level's grid: splitmix64 of
        index + key_r, mod B, in Python ints, which beat numpy on a few
        rows."""
        mask, buckets = _MASK64, self.buckets
        base = level * self._per_level
        out = []
        for cell0, key in self._row_keys:
            z = (index + key) & mask
            z = (z ^ z >> 30) * _MIX1 & mask
            z = (z ^ z >> 27) * _MIX2 & mask
            out.append(base + cell0 + (z ^ z >> 31) % buckets)
        return np.array(out)

    def _cols(self, index) -> np.ndarray:
        """Bucket of ``index`` in each row, the rows on the last axis of
        an array of indices: ``_cells_of``'s hash in wrapping uint64."""
        z = np.asarray(index).astype(np.uint64) + self._keys
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z %= np.uint64(self.buckets)
        return z.astype(np.int64)

    def update(self, index: int, delta: int) -> None:
        if not 1 <= index <= self.n:
            raise ValueError(f"index {index} out of [1, {self.n}]")
        d = int(delta)
        if abs(d) * index > _INT64_MAX:
            raise ValueError(f"weight {d} at index {index} overflows int64")
        # each added value is formed and reduced in Python ints, so once a
        # cell changes nothing below can raise
        add = np.array([d, d * index, d * self.pow1(index) % self.p1,
                        d * self.pow2(index) % self.p2], dtype=np.int64)
        depth = self._depth(index) if self.levels > 1 else 0
        at = self._cells_of(int(index), depth)
        v = self.cells[:, at] + add[:, None]
        v[2:] %= self._primes  # from [0, 2p)
        self.cells[:, at] = v
        self.level_support[depth] += d
        self.support += d

    # -- queries -----------------------------------------------------------

    def _verify_cells(self, count: np.ndarray, index: np.ndarray,
                      fp1: np.ndarray, fp2: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(index, weight, flat position) of every one-sparse cell, in
        row-major order: the count divides the index sum into an index in
        [1, N] whose fingerprints match."""
        pos = np.flatnonzero(count)
        if not len(pos):
            return pos, pos, pos
        c = count.reshape(-1)[pos]
        ix = index.reshape(-1)[pos]
        i = ix // c
        ok = (ix % c == 0) & (i >= 1) & (i <= self.n)
        pos, c, i = pos[ok], c[ok], i[ok]
        ok = ((fp1.reshape(-1)[pos]
               == _mulmod_exact(c % self.p1, self.pow1.gather(i), self.p1))
              & (fp2.reshape(-1)[pos]
                 == _mulmod_exact(c % self.p2, self.pow2.gather(i), self.p2)))
        return i[ok], c[ok], pos[ok]

    def _level_sum(self, level: int) -> np.ndarray:
        """The R x B grid of the subsample {i : depth(i) >= level}: the
        level grids from ``level`` down, summed, fingerprints reduced; a
        copy of the deepest grid, which is reduced already."""
        if level == self.levels - 1:
            return self.grids[:, level].copy()
        cells = self.grids[:, level:].sum(axis=1)
        cells[2:] %= self._primes[:, :, None]
        return cells

    def _fit_level(self) -> int:
        """The shallowest level whose subsample holds at most
        ``level_capacity`` indices by the counters, else the deepest."""
        lvl, suffix = self.levels, 0
        while lvl > 0 and (suffix + self.level_support[lvl - 1]
                           <= self.level_capacity):
            lvl -= 1
            suffix += self.level_support[lvl]
        return min(lvl, self.levels - 1)

    def _read_levels(self, need: int, whole: bool) -> set[int]:
        """At least ``need`` support indices from one level's subsample:
        its grid's one-sparse cells if they name that many (unless
        ``whole``), else the whole subsample, peeled.  Reads the level
        ``_fit_level`` picks, then shallower ones while a read stalls or
        falls short, as it can under weights other than +/-1, since the
        counters sum weights."""
        first = self._fit_level()
        for lvl in range(first, -1, -1):
            cells = self._level_sum(lvl)
            if not whole:
                found = set(self._verify_cells(*cells)[0].tolist())
                if len(found) >= need:
                    return found
            try:
                found = self._peel(cells)
            except RecoveryFail:
                continue
            if len(found) >= need:
                return found
        raise RecoveryFail(f"levels {first}..0 gave under {need} indices")

    def sample(self, which: int) -> SampleOutcome:
        """Draw number ``which``: a seeded uniform pick from a recovery.

        The recovered set is the support while it fits within
        ``capacity``, and otherwise the whole subsample that
        ``recover(need)`` reads, peeled; a sketch without ``need`` has no
        such read.  Each ``which`` >= 0 seeds its own draw, so distinct
        draws are independent picks from that set.
        """
        if which < 0:
            raise IndexError(f"draw {which} is negative")
        if self.support == 0:
            return SampleOutcome(EMPTY)
        if self.support > self.capacity and not self.need:
            return SampleOutcome(FAIL)
        try:
            got = (self.recover() if self.support <= self.capacity
                   else self._read_levels(1, whole=True))
        except RecoveryFail:
            return SampleOutcome(FAIL)
        if not got:
            return SampleOutcome(FAIL)
        pool = sorted(got)
        pick = derive_seed(self.seed, "sample", which) % len(pool)
        return SampleOutcome(INDEX, pool[pick])

    def recover(self, need: int | None = None) -> set[int]:
        """Support indices via grid peeling.

        Without ``need``, or while ``support <= capacity``: the exact
        support, peeled from the sum of all level grids.  Reliable when
        the true support fits in ``capacity``; beyond that the peeling
        either stalls (RecoveryFail) or yields a strict subset, so callers
        must gate on the support counter.

        With ``need`` = m (1 <= m <= ``self.need``) and a larger support:
        at least m distinct support indices from a level's subsample
        (``_read_levels``), or RecoveryFail.

        The depth hash makes the subsample sizes s_0 >= s_1 >= ...
        successive binomial thinnings, s_(l+1) ~ Bin(s_l, 1/2), and a
        shortfall at the picked level needs s_l > C >= s_(l+1) with
        s_(l+1) < m for some l, C = ``level_capacity``.  The chain stays
        at each size s > C for 1 / (1 - 2^-s) levels in expectation, so
            P[shortfall] <= sum over s > C of
                            P[Bin(s, 1/2) < m] / (1 - 2^-s),
        1.2e-5 for pdpsa at n=600, k=2 (m=5, C=32, sampler_fail 8.3e-6).
        A level grid at most C full stalls with probability at most
        ``stall_bound`` <= sampler_fail (``grid_geometry``; 1.4e-6 for
        the 7 x 17 grids there), and the deepest level holds more than C
        with probability at most sampler_fail (``level_count``).
        """
        if need is None or self.support <= self.capacity:
            return self._peel(self._level_sum(0))
        if not 1 <= need <= self.need:
            raise ValueError(f"need {need} outside [1, {self.need}]")
        return self._read_levels(need, whole=False)

    def _peel(self, grid: np.ndarray) -> set[int]:
        """Support of a (count, index, fp1, fp2) grid, peeled in place.

        A pass peels the rows in order, a block of rows at a time: as many
        as fit in ``_PEEL_BLOCK`` cells, and at least two, so two rows of
        dpsa's 5 x 644 grid at n=600, k=3 and all rows of a small grid.
        All of a block's one-sparse cells peel at once, the first cell of
        each index among them, and each is subtracted as stored from all
        of its index's buckets.  A pass ends at an all-zero block: an
        index left in the grid has a nonzero cell in every row, but for a
        cancellation the fingerprints all but rule out.  A pass that peels
        nothing, or an index peeled twice, stalls.
        """
        found: set[int] = set()
        step = max(2, _PEEL_BLOCK // self.buckets)
        for _ in range(grid[0].size + 1):
            if not grid.any():
                return found
            before = len(found)
            for r in range(0, self.rows, step):
                block = grid[:, r:r + step]
                peel, _, pos = self._verify_cells(*block)
                if not len(peel):
                    if not block.any():
                        break
                    continue
                peel, first = np.unique(peel, return_index=True)
                size = len(found) + len(peel)
                found.update(peel.tolist())
                if len(found) < size:
                    raise RecoveryFail("an index peeled twice")
                # flat positions and values, numpy's fast path for ufunc.at
                at = (self._row_cell0 + self._cols(peel[:, None])).ravel()
                cells = np.repeat(block.reshape(4, -1)[:, pos[first]],
                                  self.rows, axis=1)
                for field, cell in zip(grid, cells):
                    np.subtract.at(field.reshape(-1), at, cell)
                for fp, p in ((grid[2], self.p1), (grid[3], self.p2)):
                    fp.reshape(-1)[at] %= p
            if len(found) == before:
                raise RecoveryFail(
                    f"peeling stalled with {int(np.abs(grid[0]).sum())} "
                    f"residual mass")
        raise RecoveryFail("peeling did not terminate")

    # -- comparison (linearity tests) -------------------------------------

    def state_equals(self, other: "SampleRecovery") -> bool:
        return (self.support == other.support
                and self.level_support == other.level_support
                and np.array_equal(self.cells, other.cells))

    def words(self) -> int:
        """Stored machine words: every cell's 4, a hash key per row, and
        past one level the per-level counters and the depth hash key."""
        levels = self.levels + 1 if self.levels > 1 else 0
        return (self.cells.size + self.rows + levels
                + self.pow1.words() + self.pow2.words() + 4)
