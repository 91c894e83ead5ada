"""Linear sketches over sparse integer vectors indexed by [1, N].

``SampleRecovery`` holds, in one flat numpy array, L peelable grids of
one-sparse cells, one per subsampling level and all of one geometry, so
that one update is a handful of vectorised operations.  A hash sends
each index to a deepest level l* with P[l* >= l] = 2^-l, capped at L-1,
and the index is written once, into the grid of level l*; an exact
counter per level counts the net indices written there.  By linearity
the grids of levels l..L-1 sum to a grid of the subsample
{i : l*(i) >= l}.  A sketch has one read, ``recover()``: within its
capacity, a whole peel of level 0, the sum over all levels, to the exact
support; past it, on a sampled sketch, a partial read of as many indices
as its capacity, from the shallowest subsample that fits the level
capacity by the counters, level 0 among them.  ``sample()`` is a seeded
pick from that read.  This is the l0-sampler
construction of Cormode & Firmani ("A unifying framework for
l0-sampling", 2014) on the invertible Bloom lookup tables of Goodrich &
Mitzenmacher (2011).  A sketch that is not sampled has one level, a
plain recovery grid.  Each sketch has one size and one failure target,
which sizes its levels and its grids.

A one-sparse cell is a (count, index-weighted sum, fingerprint) triple
that recognises a vector with one nonzero entry.  A sketch stores it in
two int64 words, for every N: the packed word w = c 2^K + S, with K
fixed by N (``_packing``), and the fingerprint.  The map (c, S) -> w is
a ring map into Z/2^64, so level sums, peels, copies and pickles act on
the stored words exactly, and a read decodes the words of the cells it
checks as it checks them.  The decode is exact on every one-sparse cell
c e_i with |c| up to the sketch's weight limit, the most that K leaves
room for at N (64 at ``MAX_INDICES``), and ``update`` refuses a heavier
write.  A read needs no more: any other cell, say a bucket of many
indices whose sums pass the range, decodes to some candidate c' e_i',
and the fingerprint refuses it (below).  So the +/-1 writes of pdpsa
and dpsa pack at every N, and an index whose weight sums past the limit
makes a read fail, never name a wrong index.

The fingerprint is the rational sum of x_j (j + r)^-1 modulo the prime
P = 2^50 - 27, the largest below 2^50, for r drawn from [0, P - N), so
that no j + r is 0 mod P.  A cell (c, S, fp) whose count divides S into
an index i in [1, N] passes when fp (i + r) = c mod P: one exact
multiply through a float quotient (``_mulmod_exact``), with no power
table.  A cell of support s holding x decodes to a candidate c' e_i'
that depends on w alone, and w does not depend on r.  If x differs from
c' e_i' mod P, clearing the denominators of sum z_j / (j + r) for their
difference z, of support at most s + 1, gives a nonzero polynomial in r
of degree at most s; so the check passes the cell with probability at
most s / (P - N), whatever N is and whatever the cell decodes to:
1.6e-12 for a dpsa cell at n=600, k=3, which holds at most 1 800 edges.
A sketch takes N <= P/2 (``MAX_INDICES``).  Stored fingerprints lie in
[0, P), and 2^63 / P = 8 192 of them sum within int64, so a level sum
(at most 64 levels) and a peel block's subtractions (at most 8 192
indices) reduce mod P once, after them.

A sketch has one hash family, splitmix64 (Steele, Lea & Flood, 2014).
Its seed, mod 2^64, is a splitmix64 state, whose successive outputs are
the offset r (reduced mod P - N), the depth key and one key per row.  A
write hashes its index to its depth and to each row's bucket with
splitmix64's output function of the index plus that key, so that depths
and buckets behave as independent uniform draws on any support; the
leading zero bits of the depth hash give P[depth >= l] = 2^-l.  A grid
is the R x B with the fewest cells whose first-moment bounds meet the
target for the reads it serves (``grid_geometry``): a whole peel
(``stall_bound``), and past the capacity a peel that returns fewer
indices than the capacity (``short_read_bound``), so its size does not
grow with N.  A sampled sketch takes the level capacity, of two, whose
levels and grids take the fewer words (``level_geometry``).  One search,
``_least``, sizes the levels, the level capacity and each row count's
buckets, and the word budget (``MAX_WORDS``) caps the bucket search, so
a sketch that no grid within it fits is refused before any cell
exists.  A grid peels a block of rows
at a time, and each one-sparse cell's stored words are subtracted from
its index's buckets, so a peel forms no fingerprint of its own.

All structures are linear: the state after a sequence of updates depends
only on the net vector, never on update order.  blake2b serves only
``derive_seed``, which turns seed parts, such as a state's seed and a
sketch's role, into a sketch's seed, so a sketch loads neither
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
# the sketch's one hash family
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_MASK64 = (1 << 64) - 1


class RecoveryFail(SketchFail):
    """Peeling stalled before the grid emptied."""


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from an arbitrary tuple of parts."""
    h = blake2b(repr(parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


def _mix(z: int) -> int:
    """splitmix64's output function of a 64-bit state, in Python ints:
    the sketch's keys and depths.  ``_cells_of`` runs the same function
    inline, a row at a time, and ``_cols`` on uint64 arrays."""
    z = (z ^ z >> 30) * _MIX1 & _MASK64
    z = (z ^ z >> 27) * _MIX2 & _MASK64
    return z ^ z >> 31


# the fingerprints' prime, the largest below 2^50, so that products of
# two residues take the float-quotient multiply; the most indices a
# sketch takes, so that its offset r has at least P/2 values to draw from
PRIME = (1 << 50) - 27
MAX_INDICES = PRIME // 2
# residues below PRIME that an int64 sums without overflow: 8 192
_HEADROOM = _INT64_MAX // PRIME
# the most words a sketch's cells may take, 128 MiB of int64: it caps
# ``grid_geometry``'s search, and a sketch with no grid within it is
# refused
MAX_WORDS = 1 << 24


@functools.lru_cache(maxsize=64)
def _packing(n_indices: int) -> tuple[int, int]:
    """(K, weight limit) of the packed word w = c 2^K + S over indices in
    [1, N].

    While |c| <= 2^(63-K) - 1 and |S| <= 2^(K-1) - 1, S + 2^(K-1) lies
    in [1, 2^K) and c 2^K + S + 2^(K-1) in int64, so
    c = (w + 2^(K-1)) >> K and S = w - c 2^K, exactly.  A one-sparse
    cell c e_i has |S| <= |c| N, so it decodes exactly while |c| is at
    most the weight limit, min(2^(63-K) - 1, (2^(K-1) - 1) // N), and K
    makes that limit largest: 67 108 863 at N = 600, 4 194 303 at
    N = 179 700 (dpsa at n=600, K = 41), 1 048 575 at N = 2 098 176
    (dpsa at n = 2 049) and 64 at ``MAX_INDICES``.
    """
    n = max(1, n_indices)
    limit, shift = max((min((1 << (63 - k)) - 1, ((1 << (k - 1)) - 1) // n), k)
                       for k in range(1, 63))
    return shift, limit


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


def _log_no_singleton(s: np.ndarray, log_fact: np.ndarray,
                      buckets: int) -> np.ndarray:
    """log Q_s(B) for the sizes ``s`` >= 2, each with ``log_fact`` = log s!:
    exact up to ``_EXACT_STALL`` and the saddle-point bound past it."""
    small = s <= _EXACT_STALL
    q = np.empty(len(s))
    q[small] = _exact_no_singleton(buckets)[s[small] - 2]
    q[~small] = _saddle_no_singleton(s[~small], log_fact[~small], buckets)
    return q


def _log_stall(capacity: int, rows: int, buckets: int,
               least: int = 2) -> float:
    """log of sum over s >= ``least`` of C(capacity, s) Q_s(B)^R,
    ``stall_bound`` in logs at ``least`` = 2; -inf for an empty sum, as
    below two indices, which always peel."""
    s, subsets, log_fact = _stall_sizes(capacity)
    if least > 2:
        s, subsets, log_fact = s[least - 2:], subsets[least - 2:], \
            log_fact[least - 2:]
    if not len(s):
        return -math.inf
    x = subsets + rows * _log_no_singleton(s, log_fact, buckets)
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


@functools.lru_cache(maxsize=16)
def _short_terms(capacity: int, need: int) -> tuple[np.ndarray, np.ndarray]:
    """(j, log C(s, j)) for s = need+1..capacity down the rows and
    j = s, s-1, ..., s-need+1 >= 2 along them: each row holds
    ``short_read_bound``'s terms for one size s."""
    s = np.arange(need + 1, capacity + 1)[:, None]
    j = s - np.arange(need)
    # log 0!, log 1!, then ``_stall_sizes``' log s! for s = 2..capacity
    log_fact = np.concatenate(([0.0, 0.0], _stall_sizes(capacity)[2]))
    log_comb = log_fact[s] - log_fact[j] - log_fact[s - j]
    for a in (j, log_comb):
        a.setflags(write=False)  # cached, so shared by every caller
    return j, log_comb


def _log_short(capacity: int, need: int, rows: int, buckets: int) -> float:
    """The most, over s in (need, capacity], of log ``short_read_bound``
    (s, need): every size a read past ``need`` indices may find at a
    level of at most ``capacity``; -inf when there is none."""
    if capacity <= need:
        return -math.inf
    j, log_comb = _short_terms(capacity, need)
    s, _, log_fact = _stall_sizes(capacity)
    x = log_comb + rows * _log_no_singleton(s, log_fact, buckets)[j - 2]
    top = x.max(axis=1)
    return float((top + np.log(np.exp(x - top[:, None]).sum(axis=1))).max())


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


def short_read_bound(size: int, need: int, rows: int, buckets: int) -> float:
    """First-moment bound on the chance that a peel of ``size`` indices
    returns fewer than ``need`` of them.

    A union of stopping sets is one, so a peel stops at the largest, and
    returns exactly the indices outside it (Goodrich & Mitzenmacher,
    2011).  It returns fewer than ``need`` when some stopping set has
    more than size - need indices: at most sum over j > size - need of
    C(size, j) Q_j(B)^R, ``stall_bound``'s sum with a lower limit, and
    ``stall_bound`` itself while size <= need.
    """
    log = _log_stall(size, rows, buckets, size - need + 1)
    return math.exp(log) if log < 700 else math.inf


def _least(fits, low: int, high: int | None = None) -> int | None:
    """Least x >= ``low`` with ``fits(x)``, for ``fits`` false then true:
    x = low, low + 1, low + 3, low + 7, ..., capped at ``high``, then a
    bisection of the last step, O(log(x - low + 2)) calls.  None when
    ``high`` < ``low`` or ``fits(high)`` fails."""
    if high is not None and (high < low or not fits(high)):
        return None
    bad, step, good = low - 1, 1, low
    while not fits(good):
        bad, step = good, 2 * step
        good = low + step - 1 if high is None else min(high, low + step - 1)
    while good - bad > 1:
        mid = (good + bad) // 2
        if fits(mid):
            good = mid
        else:
            bad = mid
    return good


def _pair_buckets(pairs: int, target: float, rows: int) -> int:
    """Least B >= 2 with ``pairs`` / B^R <= ``target``, exactly: the s = 2
    term of ``stall_bound`` alone.  The search starts a relative 2^-40
    below the float root (pairs / target)^(1/R), taken in logs and at
    most e^700, so below the least B at any ratio, and takes O(log B)
    steps."""
    num, den = target.as_integer_ratio()
    root = math.exp(min(700.0, (math.log(pairs) - math.log(target)) / rows))
    return _least(lambda b: pairs * den <= num * b ** rows,
                  max(2, math.floor(root * (1 - 2 ** -40))))


@functools.lru_cache(maxsize=64)
def grid_geometry(capacity: int, target: float, max_cells: int,
                  need: int | None = None) -> tuple[int, int] | None:
    """(rows R, buckets per row B) of a recovery grid for up to
    ``capacity`` indices, read whole up to ``need`` of them (all of them
    when None) and in part past that: the smallest R * B, fewest rows on
    a tie, with R at most ``MAX_ROWS``, that meets both requirements
    within ``target``; None when no such grid has at most ``max_cells``
    cells.
    - A whole peel of every support within a set of W indices:
      ``stall_bound`` (W, R, B), for W = min(2 need, capacity), or the
      capacity when ``need`` is None.  A sketch read whole is read anew
      after every write, and the supports of at most ``need`` indices
      that ``need`` writes pass through lie in a set of 2 need.
    - A read of at least ``need`` of s indices, for every s in (need,
      ``capacity``]: ``short_read_bound`` (s, need, R, B).
    A grid that meets them for a need meets them for any smaller one:
    its whole peels cover the sizes that the smaller need adds.  A whole
    peel empties a distinct cell for each index, so a W past
    ``max_cells`` is refused before any bound is summed.

    Each R searches B with ``_least`` from the least B of the pair term
    of W (``_pair_buckets``), which the first requirement holds and which
    bounds the second's at s = need + 1 <= W, up to the most B that the
    budget allows, and past the first R up to the most that beats the
    best so far.  4 rows go first, as they come close to the best at
    every capacity, so that this rules most other R out at one bound
    each.  5 x 644 for dpsa's whole peel at n=600, k=3 (capacity 1 800,
    target 2.8e-8); 6 x 19 for a pdpsa level grid at n=600, k=2 (5 of up
    to 40 indices, target 8.3e-6).
    """
    if need is None or need >= capacity:
        need = whole = capacity
    else:
        whole = min(2 * need, capacity)
    if whole > max_cells:
        return None
    if capacity < 2:
        return 1, 1  # a lone index always peels
    log_target = math.log(target)
    pairs = math.comb(whole, 2)

    def fits(rows: int, buckets: int) -> bool:
        return (_log_stall(whole, rows, buckets) <= log_target
                and _log_short(capacity, need, rows, buckets) <= log_target)

    best = None
    for rows in (4, *range(1, 4), *range(5, MAX_ROWS + 1)):
        # the most B within the budget, and that beats the best: a smaller
        # R * B, or the same with fewer rows
        high = max_cells // rows
        if best is not None:
            high = min(high, (best[0] * best[1] - (rows >= best[0])) // rows)
        buckets = _least(functools.partial(fits, rows),
                         _pair_buckets(pairs, target, rows), high)
        if buckets is not None:
            best = rows, buckets
    return best


@functools.lru_cache(maxsize=64)
def level_capacity(need: int, fail: float) -> int:
    """Smallest capacity C with P[Bin(C+1, 1/2) < need] <= ``fail``.

    A sampled sketch reads ``need`` indices, its capacity, from the
    shallowest level whose subsample holds at most C indices; the level
    above it holds more than C, and each of those reaches the next level
    with probability 1/2.  This is the least level capacity that
    ``level_geometry`` considers: C = 32 for need = 5 at fail 8.3e-6
    (pdpsa at n=600, k=2).  At C = need - 1 the tail is
    1 - 2^-need >= 1/2, so any fail below 1/2 gives C >= need.  The tail
    falls as C grows, so ``_least`` takes O(log C) tails.
    """
    def fits(c: int) -> bool:
        # sum of C(c+1, j) for j < need, each binomial from the last
        term = total = 1
        for j in range(1, need):
            term = term * (c + 2 - j) // j
            total += term
        return total / 2 ** (c + 1) <= fail

    return _least(fits, max(1, need - 1))


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
    probability ``fail``: 6 levels for pdpsa at n=600, k=2 (C = 40, fail
    8.3e-6).
    """
    return _least(lambda levels: _binomial_tail(
        n_indices, 0.5 ** (levels - 1), capacity) <= fail, 1)


def _grid_words(levels: int, rows: int, buckets: int) -> int:
    """Words of a sketch's cells and fixed fields (``words()`` without a
    kept read): 2 a cell, a hash key a row, past one level the level
    counters and the depth hash key, and 3 more (the support counter, the
    capacity and the offset r)."""
    return (2 * levels * rows * buckets + rows
            + (levels + 1 if levels > 1 else 0) + 3)


@functools.lru_cache(maxsize=64)
def level_geometry(n_indices: int, need: int, fail: float, sampled: bool,
                   budget: int) -> tuple[int, int, int, int] | None:
    """(level capacity C, levels L, rows R, buckets B) of a sketch over
    ``n_indices`` indices that reads ``need`` of them, each grid
    ``grid_geometry(C, fail, budget // 2L, need)``; None when neither
    candidate C has a grid within the word budget.

    A sketch that is not sampled has C = need and one level.  A sampled
    one takes, of two level capacities, the one with the fewer words
    (``_grid_words``), the first on a tie: the least, C0 =
    ``level_capacity(need, fail)`` with L0 = ``level_count(N, C0,
    fail)`` levels, and the least that one level fewer serves.  Within
    one level count a larger C needs no fewer cells, as its grid meets a
    smaller C's requirements.  At n=600, k=2 (need 5, fail 8.3e-6) C = 40
    takes 6 levels of 6 x 19, 1 384 words, where C0 = 32 takes 7 levels
    of 6 x 17, 1 445.

    The search goes no further on purpose.  Fewer levels can take fewer
    words still (one level of 3 x 176, 1 062 words, at n=600, k=2), but
    a read there sits at a shallower level, which more writes drop: at
    one level no read outlives a write, and pdpsa's queries on the
    ``dynamic-sketch`` benchmark took twice as long.
    """
    capacity = level_capacity(need, fail) if sampled else need
    levels = level_count(n_indices, capacity, fail) if sampled else 1
    options = [(capacity, levels)]
    if levels > 1:
        # the least C that the deepest of one level fewer holds
        fewer = _least(lambda c: _binomial_tail(
            n_indices, 0.5 ** (levels - 2), c) <= fail, capacity + 1)
        options.append((fewer, level_count(n_indices, fewer, fail)))
    best = None
    for capacity, levels in options:
        grid = grid_geometry(capacity, fail, budget // (2 * levels), need)
        if grid is not None and (best is None
                                 or _grid_words(levels, *grid) < best[0]):
            best = _grid_words(levels, *grid), capacity, levels, *grid
    return best and best[1:]


class SampleRecovery:
    """L level grids of one geometry, one linear structure.

    A sketch has one size, ``capacity`` = C0, and one failure target,
    ``fail``, which defaults to 0.005 / max(1, N), delta / 2N at
    delta = 0.01, and must lie in (0, 1/2).  Without ``sampled`` the level
    capacity C is C0 and L = 1, one recovery grid read whole.  With
    ``sampled`` the sketch reads C0 indices past C0: C is at least
    ``level_capacity(C0, fail)``, itself at least C0 for any fail below
    1/2, and L = ``level_count(N, C, fail)``.  ``level_geometry`` picks C
    and the grid, ``grid_geometry(C, fail, MAX_WORDS // 2L, C0)``: 6
    levels of 6 x 19 at C = 40 for pdpsa at n=600, k=2, and one 5 x 644
    grid for dpsa at n=600, k=3.  A sketch for which it finds none within
    the word budget raises ``ValueError`` before any cell exists.
    ``stall_bound`` is the bound on a stalled whole peel of C0 indices
    that this grid meets.  All grids
    share one set of bucket hashes, so the grids of levels l..L-1 add up
    cell by cell.  ``support`` is an exact signed counter of net
    insertions, the l0 norm under valid +/-1 streams;
    ``level_support[l]`` is the same counter over the indices whose
    deepest level is l.

    One-sparse verification uses one rational fingerprint mod
    ``PRIME``, sum x_j (j + r)^-1 for an offset r in [0, P - N), so that
    a cell (c, S, fp) naming index i = S / c passes when
    fp (i + r) = c mod P, one ``_mulmod_exact`` a cell with c reduced
    mod P, so any int64 count is checked exactly.  ``update`` forms the
    inverse in Python ints.  A whole peel ends by comparing the weight it
    peeled with ``support``, and raises ``RecoveryFail`` when they
    differ; a partial read is not checked against the counters
    (``_fresh_read``).  ``grids`` is a view of ``cells`` taken on access,
    so a copy or an unpickled sketch reads the cells it updates.

    A cell takes two words in ``cells``: w = c 2^K + S and the
    fingerprint, with K from ``_packing(N)``.  ``update`` encodes a write
    with a shift and an add, and refuses a weight past the weight limit
    before any change, so that the added word fits int64 and a one-sparse
    cell decodes exactly.  ``_level_sum`` sums stored words, ``_peel``
    subtracts them, and ``_decode`` turns the cells of a check into the
    (count, index sum, fingerprint) cells that ``_verify_cells`` reads,
    so every candidate depends on the stored words alone.  An index
    whose weight sums past the limit decodes to a candidate that the
    fingerprint refuses, so a read raises ``RecoveryFail``; writes that
    bring it back within the limit restore an exact read, since the
    stored words are exact mod 2^64.  ``state_equals`` compares the
    stored words: equal vectors have equal words.

    The sketch reads its cells one way, ``_fresh_read`` through
    ``recover``, whole within capacity and past it from the level that
    the counters pick, and ``sample`` draws from that read.  A sampled
    sketch keeps its last read, with the shallowest level it reached, 0
    for a whole peel or a partial read of level 0.  A write keeps it only
    when a fresh read would return it bit for bit: the write's depth is
    below that level, the support stays past capacity, and a write just
    above it leaves the level above holding more than ``level_capacity``
    by the counters, so that ``_fit_level`` still starts the read where
    it did.  Any other write drops it, and so does every write after a
    read of level 0.
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

        geometry = level_geometry(n_indices, capacity, fail, sampled,
                                  MAX_WORDS)
        if geometry is None:
            # before any cell exists; the least level capacity's levels
            # have the fewest cells a level within the budget
            levels = (level_count(n_indices, level_capacity(capacity, fail),
                                  fail) if sampled else 1)
            raise ValueError(
                f"a sketch of capacity {capacity} over {n_indices} indices "
                f"needs more than {MAX_WORDS // (2 * levels)} cells a "
                f"level, {levels} level(s) at 2 words a cell, past the "
                f"budget of {MAX_WORDS} words")
        self.level_capacity, self.levels, self.rows, self.buckets = geometry
        self.level_support = [0] * self.levels
        self._per_level = self.rows * self.buckets
        self.stall_bound = stall_bound(capacity, self.rows, self.buckets)
        # splitmix64's outputs from the seed: the fingerprint offset, so
        # that every index + r lies in [1, P), the key of the hash that
        # picks each index's deepest level, and one bucket-hash key per
        # row, shared by every level
        r, self.depth_key, *keys = (_mix((seed + j * _GAMMA) & _MASK64)
                                    for j in range(1, self.rows + 3))
        self.r = r % (PRIME - n_indices)
        self.hash_keys = np.array(keys, dtype=np.uint64)
        # the bucket hashes add splitmix64's increment to each key once
        self._keys = self.hash_keys + np.uint64(_GAMMA)
        self._row_keys = list(zip(range(0, self._per_level, self.buckets),
                                  self._keys.tolist()))

        # (packed word, fingerprint) of every cell, level 0 first, with
        # K = ``_shift``; ``update`` refuses weights past ``_weight_limit``
        self._shift, self._weight_limit = _packing(n_indices)
        self.cells = np.zeros((2, self.levels * self._per_level),
                              dtype=np.int64)
        # the cell of bucket 0 of each row, at level 0
        self._row_cell0 = np.arange(self.rows) * self.buckets
        # (shallowest level read, indices) of a sampled sketch's last
        # read, level 0 for a whole peel; kept while every write leaves a
        # fresh read as it was (``update``)
        self._held: tuple[int, frozenset[int]] | None = None

    @property
    def grids(self) -> np.ndarray:
        """``cells`` as (field, level, row, bucket): a view, so writes
        through it land in ``cells``."""
        return self.cells.reshape(len(self.cells), self.levels, self.rows,
                                  self.buckets)

    # -- updates -----------------------------------------------------------

    def _depth(self, index: int) -> int:
        """Deepest level of ``index``: P[depth >= l] = 2^-l, capped.

        The leading zero bits of splitmix64 of index + ``depth_key``, the
        bucket hashes' mixer under a key of its own, so that the levels
        of any set of indices behave as independent draws; a linear hash
        on a run of consecutive indices leaves subsamples far from
        binomial.
        """
        h = _mix((index + self.depth_key + _GAMMA) & _MASK64)
        return min(self.levels - 1, 64 - h.bit_length())

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
        if abs(d) > self._weight_limit:
            raise ValueError(f"weight {d} past the limit of "
                             f"{self._weight_limit} over {self.n} indices")
        # each added value is formed and reduced in Python ints, so once a
        # cell changes nothing below can raise
        fp = d * pow(index + self.r, -1, PRIME) % PRIME
        add = np.array([(d << self._shift) + d * index, fp], dtype=np.int64)
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
            # from that level down; it must leave the support past
            # capacity, or the next read would be a whole peel, and one
            # just above it must leave that subsample past the level
            # capacity, or ``_fit_level`` would start the next read there
            level = held[0]
            if not (depth < level and self.support > self.capacity
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
        """(count, index sum, fingerprint) of (w, fingerprint) cells, a
        new array: c = (w + 2^(K-1)) >> K and S = w - c 2^K
        (``_packing``).  Exact on a one-sparse cell within the weight
        limit; any other cell decodes to some (c', S'), whose candidate
        ``_verify_cells`` refuses by its fingerprint."""
        shift = self._shift
        w = cells[0]
        out = np.empty((3,) + w.shape, dtype=np.int64)
        count, index = out[0], out[1]
        np.add(w, 1 << (shift - 1), out=index)
        np.right_shift(index, shift, out=count)
        np.left_shift(count, shift, out=index)
        np.subtract(w, index, out=index)
        out[2] = cells[1]
        return out

    def _level_sum(self, level: int) -> np.ndarray:
        """The stored (w, fingerprint) R x B grid of the subsample
        {i : depth(i) >= level}: the level grids from ``level`` down,
        summed, fingerprints reduced once (at most 64 levels of residues
        below P fit int64); the deepest grid is reduced already.  A new
        array, since a peel works in place."""
        grids = self.grids
        if level < self.levels - 1:
            cells = grids[:, level:].sum(axis=1)
            cells[-1] %= PRIME
            return cells
        return grids[:, level].copy()

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

        On a sketch that is not sampled, and on a sampled one while the
        support is at most ``capacity``: the exact support, peeled from
        the sum of all level grids.  Reliable when the true support fits;
        beyond that the peeling stalls, or the weight it peels differs
        from ``support``; either raises RecoveryFail, so callers of a
        sketch that is not sampled should gate on the support counter.
        A whole peel of m = ``capacity`` indices or fewer stalls with
        probability at most ``stall_bound`` (min(2m, C), R, B) <= fail
        (``grid_geometry``; 9.6e-7 for the 6 x 19 grids of pdpsa at
        n=600, k=2, fail 8.3e-6).

        On a sampled sketch past capacity: at least m distinct support
        indices from one level's subsample, level 0 while the support is
        at most C = ``level_capacity``, or RecoveryFail.  The depth hash
        makes the subsample sizes s_0 >= s_1 >= ... successive binomial
        thinnings, s_(l+1) ~ Bin(s_l, 1/2), and a shortfall at the picked
        level needs s_l > C >= s_(l+1) with s_(l+1) < m for some l.  The
        chain stays at each size s > C for 1 / (1 - 2^-s) levels in
        expectation, so
            P[shortfall] <= sum over s > C of
                            P[Bin(s, 1/2) < m] / (1 - 2^-s),
        1.1e-7 for pdpsa at n=600, k=2 (m=5, C=40).  A read of a level
        of s indices, m < s <= C, returns fewer than m with probability
        at most ``short_read_bound`` (s, m, R, B) <= fail (1.4e-6 at most
        there, at s = C), and the deepest level holds more than C with
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

    def _fresh_read(self) -> tuple[int, set[int]]:
        """(shallowest level read, indices) of a read of the cells.

        On a sketch that is not sampled, and on a sampled one while the
        support is at most ``capacity``: the whole peel of the sum of all
        level grids, checked against ``support``, read at level 0.  Past
        it, a sampled sketch makes a partial read of ``capacity``
        indices, from the level that the counters pick (``_fit_level``)
        and then shallower levels, level 0 among them, while a read
        stalls or falls short, as it can under weights other than +/-1,
        since the counters sum weights: a level's one-sparse cells if
        they name that many indices, else a peel of its subsample that
        stops once it has peeled that many.  A partial read is not
        checked against the counters, as its level may hold more indices
        than it returns, so a read whose cells disagree with them can
        return a subset of the wrong set; each returned index passed its
        fingerprint check, and the miss rate of such a read is not yet
        charged to any failure budget.
        """
        if not self.sampled or self.support <= self.capacity:
            return 0, self._peel(self._level_sum(0), self.support)
        for lvl in range(self._fit_level(), -1, -1):
            cells = self._level_sum(lvl)
            found = set(self._verify_cells(*self._decode(cells))[0].tolist())
            if len(found) < self.capacity:
                try:
                    found = self._peel(cells, None)
                except RecoveryFail:
                    continue
            return lvl, found
        raise RecoveryFail(f"no level read named {self.capacity} indices")

    def _peel(self, grid: np.ndarray, weight: int | None) -> set[int]:
        """Support of a stored (w, fingerprint) grid, peeled in place,
        whose exact counters sum to ``weight``; with ``weight`` None, a
        partial read: the indices peeled once there are ``capacity`` of
        them.

        A pass peels the rows in order, a block of rows at a time: as many
        as fit in ``_PEEL_BLOCK`` cells, and at least two, so two rows of
        dpsa's 5 x 644 grid at n=600, k=3 and all rows of a small grid.
        All of a block's one-sparse cells peel at once, the first cell of
        each index among them, up to 8 192 indices so that the
        fingerprints' int64 sums cannot overflow, and its stored words are
        subtracted from all of its index's buckets, exactly mod 2^64, so
        each check decodes the words that remain.  A pass ends at an
        all-zero block: an index left in the grid has a nonzero cell in
        every row, but for a cancellation the fingerprint all but rules
        out.  A pass that peels nothing, or an index peeled twice, stalls,
        and so does an emptied grid whose peeled weights do not sum to
        ``weight``, cells that disagree with their counters, or, for a
        partial read, that leaves fewer than ``capacity`` indices.
        """
        found: set[int] = set()
        peeled = 0
        step = max(2, _PEEL_BLOCK // self.buckets)
        for _ in range(grid[0].size + 1):
            if not grid.any():
                if weight is None:
                    raise RecoveryFail(f"peeled {len(found)} of "
                                       f"{self.capacity} indices")
                if peeled != weight:
                    raise RecoveryFail(f"peeled weight {peeled}, counters "
                                       f"{weight}")
                return found
            before = len(found)
            for r in range(0, self.rows, step):
                block = grid[:, r:r + step]
                peel, counts, pos = self._verify_cells(*self._decode(block))
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
                if weight is None and len(found) >= self.capacity:
                    return found
                # flat positions and values, numpy's fast path for ufunc.at
                at = (self._row_cell0 + self._cols(peel[:, None])).ravel()
                taken = block.reshape(2, -1)[:, pos[first]]
                peeled += int(counts[first].sum())
                for field, cell in zip(grid, np.repeat(taken, self.rows,
                                                       axis=1)):
                    np.subtract.at(field.reshape(-1), at, cell)
                grid[1].reshape(-1)[at] %= PRIME
            if len(found) == before:
                raise RecoveryFail(
                    f"peeling stalled with {np.count_nonzero(grid[0])} "
                    f"nonzero cells")
        raise RecoveryFail("peeling did not terminate")

    # -- comparison (linearity tests) -------------------------------------

    def state_equals(self, other: "SampleRecovery") -> bool:
        """Equal counters and stored words."""
        return (self.support == other.support
                and self.level_support == other.level_support
                and np.array_equal(self.cells, other.cells))

    def holds(self, indices) -> bool:
        """True when the sketched vector is the 0/1 indicator of
        ``indices``, checked on the counters and the cells, read-only.

        Each index sits at one level and in one bucket of every row, so
        the indicator has ``support`` = |indices|, each level's counter
        the number of indices at that depth, and in every row, over all
        levels and buckets, words summing to sum (2^K + i) mod 2^64 and
        fingerprints to sum (i + r)^-1 mod P.  A vector x written
        through ``update`` that differs from the indicator passes only if
        the fingerprint sum of the difference, a nonzero polynomial in r
        once its denominators are cleared, vanishes: with probability at
        most s / (P - N) over r, s the support of the difference, the
        bound of a cell check.  The fingerprints are reduced mod P every
        ``_HEADROOM`` residues, so no int64 sum overflows.
        """
        want = set(indices)
        if len(want) != self.support or not all(
                1 <= i <= self.n for i in want):
            return False
        # the fingerprint sum as one fraction num / den, inverted once
        depths, num, den = [0] * self.levels, 0, 1
        for i in want:
            depths[self._depth(i)] += 1
            num = (num * (i + self.r) + den) % PRIME
            den = den * (i + self.r) % PRIME
        if depths != self.level_support:
            return False
        got = np.zeros((2, self.rows), dtype=np.int64)
        step = max(1, (_HEADROOM - 1) // self.levels)
        for at in range(0, self.buckets, step):
            got += self.grids[..., at:at + step].sum(axis=3).sum(axis=1)
            got[1] %= PRIME
        w = ((len(want) << self._shift) + sum(want)) & _MASK64
        fp = num * pow(den, -1, PRIME) % PRIME
        words, fps = got.tolist()
        return (all(x & _MASK64 == w for x in words)
                and all(x == fp for x in fps))

    def words(self) -> int:
        """Stored machine words: every cell's 2 (its packed word and its
        fingerprint), a hash key per row, past one level the per-level
        counters and the depth hash key, 3 more (the support counter, the
        capacity and the offset r), and for a kept read its level and one
        word per index."""
        held = 0 if self._held is None else 1 + len(self._held[1])
        return _grid_words(self.levels, self.rows, self.buckets) + held
