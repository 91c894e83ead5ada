"""Linear sketches over sparse integer vectors indexed by [1, N].

``SampleRecovery`` holds, in one flat numpy array, L peelable grids of
one-sparse cells, one per subsampling level and all of one geometry, so
that one update is a handful of vectorised operations.  A hash sends
each index to a deepest level l* with P[l* >= l] = 2^-l, capped at L-1,
and the index is written once, into the grid of level l*; an exact
counter per level counts the net indices written there.  By linearity
the grids of levels l..L-1 sum to a grid of the subsample
{i : l*(i) >= l}.  A sketch has one read, ``recover()``: the sum over
all levels peels to the exact support while that fits the sketch's
capacity; past it a sampled sketch reads as many indices as its capacity
from the shallowest subsample that fits, and ``sample()`` is a seeded
pick from that read.  This is the l0-sampler construction of Cormode &
Firmani ("A unifying framework for l0-sampling", 2014) on the invertible
Bloom lookup tables of Goodrich & Mitzenmacher (2011).  A sketch that is
not sampled has one level, a plain recovery grid.  Each sketch has one
size and one failure target, which sizes its levels and its grids.

A one-sparse cell is a (count, index-weighted sum, fingerprint) triple
that recognises a vector with one nonzero entry.  A sketch stores it in
two int64 words: the packed word w = c 2^K + S, with K fixed by N
(``_packing``), and the fingerprint.  The map (c, S) -> w is a ring map
into Z/2^64, so level sums, copies and pickles act on w as they did on
c and S, and a read decodes w once, in ``_level_sum``, exactly while
every level sum keeps |c| and |S| within the packed range.  The sketch
keeps an exact bound on each, raised by |d| and |d| i at a write to
index i and, when either would pass the range, recomputed from the
cells; a write that passes the range even then widens the sketch to
three words a cell for good.  The vectors that pdpsa and dpsa write are
0/1, so a valid +/-1 stream never widens a sketch; one whose N is too
large for every 0/1 vector to fit (dpsa from n = 2 049) starts wide.

The fingerprint is the rational sum of x_j (j + r)^-1 modulo the prime
P = 2^50 - 27, the largest below 2^50, for r drawn from [0, P - N), so
that no j + r is 0 mod P.  A cell (c, S, fp) whose count divides S into
an index i in [1, N] passes when fp (i + r) = c mod P: one exact
multiply through a float quotient (``_mulmod_exact``), with no power
table.  For a cell of support s that is not c e_i, its difference z
from c e_i is nonzero mod P, and clearing the denominators of
sum z_j / (j + r) gives a nonzero polynomial in r of degree at most s;
so the check passes the cell with probability at most s / (P - N),
whatever N is: 1.6e-12 for a dpsa cell at n=600, k=3, which holds at
most 1 800 edges.  A sketch takes N <= P/2 (``MAX_INDICES``).  Stored
fingerprints lie in [0, P), and 2^63 / P = 8 192 of them sum within
int64, so a level sum (at most 64 levels) and a peel block's
subtractions (at most 8 192 indices) reduce mod P once, after them.

Each row hashes an index to one of B buckets with splitmix64 of the
index plus the row's key, so that buckets behave as independent uniform
draws on any support.  A grid is the R x B with the fewest cells whose
first-moment bound on a stalled peel (``stall_bound``) meets the target
(``grid_geometry``), so its size does not grow with N.  A grid peels a
block of rows at a time, and each one-sparse cell is subtracted as
stored from its index's buckets, so a peel forms no fingerprint of its
own.

All structures are linear: the state after a sequence of updates depends
only on the net vector, never on update order.  The fingerprint offset
r, the row keys and the depth key are blake2b hashes of the sketch's
seed (``derive_seed``'s chain), so a sketch loads neither
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


# the fingerprints' prime, the largest below 2^50, so that products of
# two residues take the float-quotient multiply; the most indices a
# sketch takes, so that its offset r has at least P/2 values to draw from
PRIME = (1 << 50) - 27
MAX_INDICES = PRIME // 2
# residues below PRIME that an int64 sums without overflow: 8 192
_HEADROOM = _INT64_MAX // PRIME
# the most words a sketch's cells may take, 128 MiB of int64: a sketch
# whose least grid would pass it is refused before it is sized
MAX_WORDS = 1 << 24


@functools.lru_cache(maxsize=64)
def _packing(n_indices: int) -> tuple[int, int, int] | None:
    """(K, count limit, sum limit) of the packed word w = c 2^K + S over
    indices in [1, N], or None where no 0/1 vector is sure to fit.

    While |c| <= 2^(63-K) - 1 and |S| <= 2^(K-1) - 1, S + 2^(K-1) lies
    in [1, 2^K) and c 2^K + S + 2^(K-1) in int64, so
    c = (w + 2^(K-1)) >> K and S = w - c 2^K, exactly.  K makes the
    least of the count limit and the sum limit / N largest.  A 0/1
    vector has c <= N and S <= N(N+1)/2 in any cell; packing needs the
    limits to hold that and one more +/-1 write, so that a valid stream
    never widens (``update``).  K = 41 at N = 179 700 (dpsa at n=600),
    limits 2^22 - 1 and 2^40 - 1; dpsa from n = 2 049 has none.
    """
    n = max(1, n_indices)
    _, shift = max((min((1 << (63 - k)) - 1, ((1 << (k - 1)) - 1) // n), k)
                   for k in range(1, 63))
    count, total = (1 << (63 - shift)) - 1, (1 << (shift - 1)) - 1
    if count < n + 1 or total < n * (n + 3) // 2:
        return None
    return shift, count, total


def _mulmod_exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a * b mod p elementwise for 0 <= a, b < p < 2^50, exact.

    a, b and p are exact doubles, and the two roundings of
    fl(a) * fl(b) / p move a * b / p < 2^50 by less than
    2^50 * 2^-52 = 1/4, so its truncation q is off by at most one.  Then
    a * b - q * p lies in (-p, 2p), wrapping int64 arithmetic gives it
    exactly, and one floored remainder brings it into [0, p): on a
    level read's few dozen cells, a fifth of the time of a masked
    correction each way.
    """
    q = (a.astype(np.float64) * b / p).astype(np.int64)
    r = a * b - q * p
    r %= p
    return r


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


def _log_stall(capacity: int, rows: int, buckets: int) -> float:
    """log of sum over s of C(capacity, s) Q_s(B)^R, ``stall_bound`` in
    logs; -inf below two indices, which always peel."""
    subsets, q = _log_no_singleton(capacity, buckets)
    x = subsets + rows * q
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
    log = _log_stall(capacity, rows, buckets)
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
        return _log_stall(capacity, rows, buckets) <= log_target

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


def _least_cells(capacity: int, target: float) -> int:
    """A lower bound on the cells R * B of ``grid_geometry(capacity,
    target)``, found without sizing.  It is at least ``capacity``: a peel
    empties a distinct cell for each index, so a smaller grid always
    stalls.  And at each R, B is at least the least that the pair term
    C(capacity, 2) / B^R <= target allows, and at least 2."""
    if capacity < 2:
        return 1
    pairs = math.comb(capacity, 2)
    return max(capacity, min(
        rows * max(2, math.floor((pairs / target) ** (1 / rows)))
        for rows in range(1, MAX_ROWS + 1)))


@functools.lru_cache(maxsize=64)
def level_capacity(need: int, fail: float) -> int:
    """Smallest capacity C with P[Bin(C+1, 1/2) < need] <= ``fail``.

    A sampled sketch reads ``need`` indices, its capacity, from the
    shallowest level whose subsample holds at most C indices; the level
    above it holds more than C, and each of those reaches the next level
    with probability 1/2.  C = 32 for need = 5 at fail 8.3e-6 (pdpsa at
    n=600, k=2).  At C = need - 1 the tail is 1 - 2^-need >= 1/2, so any
    fail below 1/2 gives C >= need.  The tail falls as C grows, so a
    doubling then a bisection take O(log C) tails.
    """
    def fits(c: int) -> bool:
        # sum of C(c+1, j) for j < need, each binomial from the last
        term = total = 1
        for j in range(1, need):
            term = term * (c + 2 - j) // j
            total += term
        return total / 2 ** (c + 1) <= fail

    least = max(1, need - 1)
    bad, good = least - 1, least
    while not fits(good):
        bad, good = good, 2 * good
    while good - bad > 1:
        mid = (good + bad) // 2
        if fits(mid):
            good = mid
        else:
            bad = mid
    return good


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

    A sketch has one size, ``capacity`` = C0, and one failure target,
    ``fail``, which defaults to 0.005 / max(1, N), delta / 2N at
    delta = 0.01, and must lie in (0, 1/2).  Without ``sampled`` the level
    capacity C is C0 and L = 1, one recovery grid.  With ``sampled`` the
    sketch reads C0 indices past C0: C = ``level_capacity(C0, fail)``,
    at least C0 for any fail below 1/2, and L = ``level_count(N, C,
    fail)``.  Every grid is ``grid_geometry(C, fail)`` (7 x 17 for pdpsa
    at n=600, k=2; 5 x 644 for dpsa at n=600, k=3), and ``stall_bound``
    is the bound on a stalled peel of C indices that this grid meets.
    All grids share one set of bucket hashes, so the grids of levels
    l..L-1 add up cell by cell.  ``support`` is an exact signed counter
    of net insertions, the l0 norm under valid +/-1 streams;
    ``level_support[l]`` is the same counter over the indices whose
    deepest level is l.

    One-sparse verification uses one rational fingerprint mod
    ``PRIME``, sum x_j (j + r)^-1 for an offset r in [0, P - N), so that
    a cell (c, S, fp) naming index i = S / c passes when
    fp (i + r) = c mod P, one ``_mulmod_exact`` a cell with c reduced
    mod P, so any int64 count is checked exactly.  ``update`` forms the
    inverse in Python ints.  A full peel ends by comparing the weight it
    peeled with the exact counters (``support``, or a level subsample's
    suffix of ``level_support``), and raises ``RecoveryFail`` when they
    differ.  ``grids`` is a view of ``cells`` taken on access, so a copy
    or an unpickled sketch reads the cells it updates.

    A cell takes two words in ``cells``: w = c 2^K + S and the
    fingerprint, with K = ``_shift`` from ``_packing(N)``.  ``update``
    encodes a write with a shift and an add, and ``_level_sum`` decodes
    a level sum into the (count, index sum, fingerprint) grid that
    ``_peel`` and ``_verify_cells`` read.  The sketch keeps exact bounds
    on |c| and |S| over every level sum, ``_bounds``, which a write
    raises by |d| and |d| i; when either would pass its limit,
    ``_refit`` takes the bounds the cells show, and if the write passes
    a limit even then it widens ``cells`` to three words a cell for
    good (``_shift`` None).  Under a valid +/-1 stream the vector is
    0/1 and no write widens; a sketch with N past ``_packing``'s range
    starts wide.  ``state_equals`` compares decoded cells.

    The sketch reads its cells one way, ``_fresh_read`` through
    ``recover``, and ``sample`` draws from that read.  A sampled sketch
    keeps its last read, with the shallowest level it reached, None for
    a whole peel.  A write keeps it only when a fresh read would return
    it bit for bit: the read was a level read, the support stays above
    ``capacity``, the write's depth is below that level, and a write
    just above it leaves the level above holding more than
    ``level_capacity`` by the counters, so that ``_fit_level`` still
    starts the read where it did.
    Any other write drops it, and so does every write after a whole peel.
    An index reaches depth l or more with probability 2^-l, so a read at
    level l survives a write with probability 1 - 2^-l while the level
    above stays past capacity: 15 writes of 16 at level 4.
    """

    def __init__(self, n_indices: int, capacity: int, seed: int,
                 fail: float | None = None, sampled: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if n_indices < 0:
            raise ValueError("n_indices must be >= 0")
        if n_indices > MAX_INDICES:
            # before any sizing, so a refused sketch costs nothing
            raise ValueError(f"{n_indices} indices exceed the sketch's "
                             f"limit of {MAX_INDICES} (P/2, P = 2^50 - 27)")
        if fail is None:
            fail = 0.005 / max(1, n_indices)
        if not 0 < fail < 0.5:
            raise ValueError(f"fail {fail} outside (0, 1/2)")
        self.n = n_indices
        self.capacity = capacity
        self.sampled = sampled
        self.seed = seed
        self.support = 0

        if sampled:
            self.level_capacity = level_capacity(capacity, fail)
            self.levels = level_count(n_indices, self.level_capacity, fail)
        else:
            self.level_capacity, self.levels = capacity, 1
        self.level_support = [0] * self.levels
        # packed while every 0/1 vector fits the range, so that the +/-1
        # writes of a valid stream never widen the sketch
        packing = _packing(n_indices)
        fields = 3 if packing is None else 2
        least = fields * self.levels * _least_cells(self.level_capacity, fail)
        if least > MAX_WORDS:
            # before ``grid_geometry``, whose sizing grows with capacity
            raise ValueError(f"a sketch of capacity {capacity} over "
                             f"{n_indices} indices needs at least {least} "
                             f"words of cells, past the budget of "
                             f"{MAX_WORDS}")
        self.rows, self.buckets = grid_geometry(self.level_capacity, fail)
        self.stall_bound = stall_bound(self.level_capacity, self.rows,
                                       self.buckets)
        self._per_level = self.rows * self.buckets
        # the fingerprint offset, so that every index + r lies in [1, P)
        self.r = _hash64(seed, "r") % (PRIME - n_indices)

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

        # (packed word, fingerprint) of every cell, level 0 first, with
        # K = ``_shift`` and the limits on |c| and |S|; (count, index
        # sum, fingerprint) once widened, when ``_shift`` is None
        self._shift, *self._limits = packing or (None, None, None)
        # exact bounds on |c| and on |S| over every level sum, while packed
        self._bounds = (0, 0)
        self.cells = np.zeros((fields, self.levels * self._per_level),
                              dtype=np.int64)
        # the cell of bucket 0 of each row, at level 0
        self._row_cell0 = np.arange(self.rows) * self.buckets
        # (shallowest level read, indices) of a sampled sketch's last
        # read, level None for a whole peel; kept while every write
        # leaves a fresh read as it was (``update``)
        self._held: tuple[int | None, frozenset[int]] | None = None

    @property
    def grids(self) -> np.ndarray:
        """``cells`` as (field, level, row, bucket): a view, so writes
        through it land in ``cells``."""
        return self.cells.reshape(len(self.cells), self.levels, self.rows,
                                  self.buckets)

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
        fp = d * pow(index + self.r, -1, PRIME) % PRIME
        shift = self._shift
        if shift is not None:
            # a write raises the bounds by |d| and |d| index
            a = abs(d)
            count, total = self._bounds
            count, total = count + a, total + a * index
            top, most = self._limits
            if count > top or total > most:
                shift = self._refit(a, index)
            else:
                self._bounds = count, total
        if shift is None:
            add = np.array([d, d * index, fp], dtype=np.int64)
        else:
            add = np.array([(d << shift) + d * index, fp], dtype=np.int64)
        depth = self._depth(index) if self.levels > 1 else 0
        at = self._cells_of(int(index), depth)
        v = self.cells[:, at] + add[:, None]
        v[-1] %= PRIME  # from [0, 2P)
        self.cells[:, at] = v
        self.level_support[depth] += d
        self.support += d
        held = self._held
        if held is not None:
            # a write below the level read leaves the cells and counters
            # from that level down; one just above it must leave that
            # subsample past the level capacity, or ``_fit_level`` would
            # start the next read there
            level = held[0]
            if not (level is not None and depth < level
                    and self.support > self.capacity
                    and (depth < level - 1 or sum(self.level_support[depth:])
                         > self.level_capacity)):
                self._held = None

    # -- queries -----------------------------------------------------------

    def _verify_cells(self, count: np.ndarray, index: np.ndarray,
                      fp: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(index, weight, flat position) of every one-sparse cell, in
        row-major order: the count c divides the index sum into an index
        i in [1, N] with fp (i + r) = c mod P."""
        pos = np.flatnonzero(count)
        if not len(pos):
            return pos, pos, pos
        c = count.reshape(-1)[pos]
        ix = index.reshape(-1)[pos]
        i, rest = np.divmod(ix, c)
        # 1 <= i <= N as one unsigned test: i - 1 wraps below 0
        ok = (rest == 0) & ((i - 1).view(np.uint64) < self.n)
        pos, c, i = pos[ok], c[ok], i[ok]
        ok = (_mulmod_exact(fp.reshape(-1)[pos], i + self.r, PRIME)
              == c % PRIME)
        return i[ok], c[ok], pos[ok]

    def _decode(self, cells: np.ndarray) -> np.ndarray:
        """(count, index sum, fingerprint) of cells in the sketch's
        layout: of packed (w, fingerprint) cells a new array, with
        c = (w + 2^(K-1)) >> K and S = w - c 2^K (``_packing``); wide
        cells as they are."""
        shift = self._shift
        if shift is None:
            return cells
        w = cells[0]
        out = np.empty((3,) + w.shape, dtype=np.int64)
        count, index = out[0], out[1]
        np.add(w, 1 << (shift - 1), out=index)
        np.right_shift(index, shift, out=count)
        np.left_shift(count, shift, out=index)
        np.subtract(w, index, out=index)
        out[2] = cells[1]
        return out

    def _refit(self, weight: int, index: int) -> int | None:
        """Make room for a write of |d| = ``weight`` at ``index`` that the
        running bounds would take past the packed range, and return the
        layout's K, None once wide.  The bounds become those the cells
        show, the most that a cell's |c|, or its |S|, sums to over the
        levels, which bound every level sum, raised by the write; if
        the write passes the range even then, the cells widen to three
        words for good."""
        fields = self._decode(self.cells)
        count, total = np.abs(fields[:2].reshape(2, self.levels, -1)).sum(
            axis=1).max(axis=1).tolist()
        count, total = count + weight, total + weight * index
        top, most = self._limits
        if count > top or total > most:
            self.cells = fields
            self._shift = self._bounds = None
        else:
            self._bounds = count, total
        return self._shift

    def _level_sum(self, level: int) -> np.ndarray:
        """The (count, index sum, fingerprint) R x B grid of the subsample
        {i : depth(i) >= level}: the level grids from ``level`` down,
        summed, fingerprints reduced once (at most 64 levels of residues
        below P fit int64), and decoded; the deepest grid is reduced
        already.  A new array, since a peel works in place."""
        grids = self.grids
        if level < self.levels - 1:
            cells = grids[:, level:].sum(axis=1)
            cells[-1] %= PRIME
        elif self._shift is None:
            return grids[:, level].copy()
        else:
            cells = grids[:, level]
        return self._decode(cells)

    def _fit_level(self) -> int:
        """The shallowest level whose subsample holds at most
        ``level_capacity`` indices by the counters, else the deepest."""
        lvl, suffix = self.levels, 0
        while lvl > 0 and (suffix + self.level_support[lvl - 1]
                           <= self.level_capacity):
            lvl -= 1
            suffix += self.level_support[lvl]
        return min(lvl, self.levels - 1)

    def sample(self, which: int) -> SampleOutcome:
        """Draw number ``which``: a seeded uniform pick from ``recover()``.

        Each ``which`` >= 0 seeds its own draw, so distinct draws are
        independent picks from one read: the support while it fits
        ``capacity``, past it a sampled sketch's level read.  A sketch
        that is not sampled has no read past its capacity and fails
        there.
        """
        if which < 0:
            raise IndexError(f"draw {which} is negative")
        if self.support == 0:
            return SampleOutcome(EMPTY)
        if self.support > self.capacity and not self.sampled:
            return SampleOutcome(FAIL)
        try:
            pool = sorted(self.recover())
        except RecoveryFail:
            return SampleOutcome(FAIL)
        pick = derive_seed(self.seed, "sample", which) % len(pool)
        return SampleOutcome(INDEX, pool[pick])

    def recover(self) -> set[int] | frozenset[int]:
        """Support indices via grid peeling, the sketch's one read.

        While ``support <= capacity``, or on a sketch that is not
        sampled: the exact support, peeled from the sum of all level
        grids.  Reliable when the true support fits in ``capacity``;
        beyond that the peeling stalls, or the weight it peels differs
        from ``support``; either raises RecoveryFail, so callers should
        gate on the support counter.

        On a sampled sketch past ``capacity`` = m: at least m distinct
        support indices from one level's subsample, or RecoveryFail.  The
        depth hash makes the subsample sizes s_0 >= s_1 >= ... successive
        binomial thinnings, s_(l+1) ~ Bin(s_l, 1/2), and a shortfall at
        the picked level needs s_l > C >= s_(l+1) with s_(l+1) < m for
        some l, C = ``level_capacity``.  The chain stays at each size
        s > C for 1 / (1 - 2^-s) levels in expectation, so
            P[shortfall] <= sum over s > C of
                            P[Bin(s, 1/2) < m] / (1 - 2^-s),
        1.2e-5 for pdpsa at n=600, k=2 (m=5, C=32, fail 8.3e-6).  A level
        grid at most C full stalls with probability at most
        ``stall_bound`` <= fail (``grid_geometry``; 1.4e-6 for the 7 x 17
        grids there), and the deepest level holds more than C with
        probability at most fail (``level_count``).

        A sampled sketch returns a frozenset and keeps it, so that the
        next call returns it again while ``update`` finds that no write
        since changed what a fresh read would return.  A sketch that is
        not sampled (dpsa's) peels on every call and keeps nothing.
        """
        if not self.sampled:
            return self._fresh_read()[1]
        if self._held is None:
            level, found = self._fresh_read()
            self._held = level, frozenset(found)
        return self._held[1]

    def _fresh_read(self) -> tuple[int | None, set[int]]:
        """(shallowest level read, indices) of a read of the cells.

        While the support fits ``capacity``, or on a sketch that is not
        sampled, the whole peel of the sum of all level grids, level
        None.  Past it, on a sampled sketch, ``capacity`` indices of the
        level ``_fit_level`` picks: its grid's one-sparse cells if they
        name that many, else its whole subsample, peeled; then shallower
        levels while a read stalls or falls short, as it can under
        weights other than +/-1, since the counters sum weights.
        """
        if not self.sampled or self.support <= self.capacity:
            return None, self._peel(self._level_sum(0), self.support)
        first = self._fit_level()
        for lvl in range(first, -1, -1):
            cells = self._level_sum(lvl)
            found = set(self._verify_cells(*cells)[0].tolist())
            if len(found) < self.capacity:
                try:
                    found = self._peel(cells, sum(self.level_support[lvl:]))
                except RecoveryFail:
                    continue
            if len(found) >= self.capacity:
                return lvl, found
        raise RecoveryFail(f"levels {first}..0 gave under {self.capacity} "
                           f"indices")

    def _peel(self, grid: np.ndarray, weight: int) -> set[int]:
        """Support of a (count, index, fingerprint) grid, peeled in place,
        whose exact counters sum to ``weight``.

        A pass peels the rows in order, a block of rows at a time: as many
        as fit in ``_PEEL_BLOCK`` cells, and at least two, so two rows of
        dpsa's 5 x 644 grid at n=600, k=3 and all rows of a small grid.
        All of a block's one-sparse cells peel at once, the first cell of
        each index among them, up to 8 192 indices so that the
        fingerprints' int64 sums cannot overflow, and each is subtracted
        as stored from all of its index's buckets.  A pass ends at an
        all-zero block: an index left in the grid has a nonzero cell in
        every row, but for a cancellation the fingerprint all but rules
        out.  A pass that peels nothing, or an index peeled twice, stalls,
        and so does an emptied grid whose peeled weights do not sum to
        ``weight``: cells that disagree with their counters.
        """
        found: set[int] = set()
        peeled = 0
        step = max(2, _PEEL_BLOCK // self.buckets)
        for _ in range(grid[0].size + 1):
            if not grid.any():
                if peeled != weight:
                    raise RecoveryFail(f"peeled weight {peeled}, counters "
                                       f"{weight}")
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
                peel, first = peel[:_HEADROOM], first[:_HEADROOM]
                size = len(found) + len(peel)
                found.update(peel.tolist())
                if len(found) < size:
                    raise RecoveryFail("an index peeled twice")
                # flat positions and values, numpy's fast path for ufunc.at
                at = (self._row_cell0 + self._cols(peel[:, None])).ravel()
                taken = block.reshape(3, -1)[:, pos[first]]
                peeled += int(taken[0].sum())
                for field, cell in zip(grid, np.repeat(taken, self.rows,
                                                       axis=1)):
                    np.subtract.at(field.reshape(-1), at, cell)
                grid[2].reshape(-1)[at] %= PRIME
            if len(found) == before:
                raise RecoveryFail(
                    f"peeling stalled with {int(np.abs(grid[0]).sum())} "
                    f"residual mass")
        raise RecoveryFail("peeling did not terminate")

    # -- comparison (linearity tests) -------------------------------------

    def state_equals(self, other: "SampleRecovery") -> bool:
        """Equal counters and decoded cells, so a widened sketch can equal
        a packed one."""
        return (self.support == other.support
                and self.level_support == other.level_support
                and np.array_equal(self._decode(self.cells),
                                   other._decode(other.cells)))

    def words(self) -> int:
        """Stored machine words: every cell's 2 (its packed word and its
        fingerprint), or 3 once widened, a hash key per row, past one
        level the per-level counters and the depth hash key, 3 more (the
        support counter, the capacity and the offset r), the two range
        bounds while packed, and for a kept read its level and one word
        per index."""
        levels = self.levels + 1 if self.levels > 1 else 0
        held = 0 if self._held is None else 1 + len(self._held[1])
        bounds = 0 if self._shift is None else 2
        return self.cells.size + self.rows + levels + 3 + bounds + held
