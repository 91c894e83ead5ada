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
for p < 2^50 (dpsa up to n = 8 192), in Python ints past that.  Every
grid has 2 * capacity buckets per row and only as many rows as the
pair-collision bound asks (``grid_geometry``), so its size does not
grow with N.  A grid peels one row at a time: an index has one bucket
per row, so one row's one-sparse cells name distinct indices, and each
is subtracted as stored from its index's other buckets, so a peel
computes fingerprints only to verify cells.

All structures are linear: the state after a sequence of updates depends
only on the net vector, never on update order.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .core import SketchFail

# 31-bit Mersenne prime used by the level / bucket hashes.
HASH_P = (1 << 31) - 1
_INT64_MAX = (1 << 63) - 1


class RecoveryFail(SketchFail):
    """Peeling stalled before the grid emptied."""


def derive_seed(*parts) -> int:
    """Deterministic 63-bit seed from an arbitrary tuple of parts."""
    h = hashlib.blake2b(repr(parts).encode(), digest_size=8)
    return int.from_bytes(h.digest(), "big") >> 1


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


def grid_geometry(capacity: int, delta: float) -> tuple[int, int]:
    """(rows, buckets per row) of a recovery grid for ``capacity`` indices.

    Each row hashes an index to one of B = 2 * capacity buckets.  Peeling
    a grid filled to capacity stalls, at this load, almost only when two
    indices share a bucket in every row (Goodrich & Mitzenmacher,
    "Invertible Bloom Lookup Tables", 2011), which happens with
    probability at most capacity^2 / B^R over all pairs.  R rows with
    B^R >= capacity^2 / delta hold that below delta; at least 4 rows.
    """
    buckets = 2 * capacity
    rows = max(4, math.ceil(math.log(capacity * capacity / delta)
                            / math.log(buckets)))
    return rows, buckets


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
    ``capacity`` and ``level_capacity(m, sampler_fail)``, and L =
    ``level_count(N, C, sampler_fail)``; with ``need`` = 0, C is
    ``capacity`` and L = 1.  Every grid is ``grid_geometry(C, f)`` for f
    the smaller of delta and sampler_fail (5 x 64 for pdpsa at n=600,
    k=2; 4 x 3600 for dpsa at n=600, k=3), and all share one set of
    bucket hashes, so the grids of levels l..L-1 add up cell by cell.
    ``support`` is an exact signed counter of net insertions, the l0
    norm under valid +/-1 streams; ``level_support[l]`` is the same
    counter over the indices whose deepest level is l.

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
        self.n = n_indices
        self.capacity = capacity
        self.need = need
        self.seed = seed
        self.support = 0

        fail = sampler_fail if sampler_fail is not None else delta
        if need:
            self.level_capacity = max(capacity, level_capacity(need, fail))
            self.levels = level_count(n_indices, self.level_capacity, fail)
        else:
            self.level_capacity, self.levels = capacity, 1
        self.level_support = [0] * self.levels
        self.rows, self.buckets = grid_geometry(self.level_capacity,
                                                min(delta, fail))

        self.p1 = fingerprint_prime(max(n_indices * n_indices, 1 << 30))
        self.p2 = fingerprint_prime(self.p1)
        if self.levels * self.p2 > _INT64_MAX:
            # a level sum adds one fingerprint below p2 per level
            raise ValueError(f"{n_indices} indices are too many for "
                             f"level grids")
        rng = np.random.default_rng(derive_seed(seed, "hashes"))
        r1 = int(rng.integers(1, self.p1))
        r2 = int(rng.integers(1, self.p2))
        self.pow1 = PowTable(r1, self.p1, n_indices)
        self.pow2 = PowTable(r2, self.p2, n_indices)

        # bucket hashes, one pair per row, shared by every level
        self.hash_a = rng.integers(1, HASH_P, size=self.rows, dtype=np.int64)
        self.hash_b = rng.integers(0, HASH_P, size=self.rows, dtype=np.int64)
        # key of the hash that picks each index's deepest level
        self.depth_key = derive_seed(seed, "depth").to_bytes(8, "big")

        # (count, index, fp1, fp2) of every cell, level 0 first
        self._per_level = self.rows * self.buckets
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
        h = hashlib.blake2b(int(index).to_bytes(8, "big"), digest_size=8,
                            key=self.depth_key).digest()
        return min(self.levels - 1, 64 - int.from_bytes(h, "big").bit_length())

    def _cols(self, index):
        """Bucket of ``index`` in each row: (a_r i + b_r) % HASH_P % B."""
        return (self.hash_a * index + self.hash_b) % HASH_P % self.buckets

    def update(self, index: int, delta: int) -> None:
        if not 1 <= index <= self.n:
            raise ValueError(f"index {index} out of [1, {self.n}]")
        d = int(delta)
        if abs(d) * index > _INT64_MAX:
            raise ValueError(f"weight {d} at index {index} overflows int64")
        # each added value is formed and reduced in Python ints, so once a
        # cell changes nothing below can raise
        add = np.array([[d], [d * index], [d * self.pow1(index) % self.p1],
                        [d * self.pow2(index) % self.p2]], dtype=np.int64)
        depth = self._depth(index) if self.levels > 1 else 0
        at = self._row_cell0 + self._cols(index) + depth * self._per_level
        v = self.cells[:, at] + add
        fp = v[2:]  # in [0, 2p)
        fp -= self._primes * (fp >= self._primes)
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
        sampler_fail (``grid_geometry``), and the deepest level holds more
        than C with probability at most sampler_fail (``level_count``).
        """
        if need is None or self.support <= self.capacity:
            return self._peel(self._level_sum(0))
        if not 1 <= need <= self.need:
            raise ValueError(f"need {need} outside [1, {self.need}]")
        return self._read_levels(need, whole=False)

    def _peel(self, grid: np.ndarray) -> set[int]:
        """Support of a (count, index, fp1, fp2) grid, peeled in place.

        A pass peels the rows in order, all of a row's one-sparse cells at
        once, and ends at an all-zero row: an index left in the grid has a
        nonzero cell in every row, but for a cancellation the fingerprints
        all but rule out.  A pass that peels nothing, or an index peeled
        twice, stalls.
        """
        found: set[int] = set()
        for _ in range(grid[0].size + 1):
            if not grid.any():
                return found
            before = len(found)
            for r in range(self.rows):
                peel, _, pos = self._verify_cells(*grid[:, r])
                if not len(peel):
                    if not grid[:, r].any():
                        break
                    continue
                size = len(found) + len(peel)
                found.update(peel.tolist())
                if len(found) < size:
                    raise RecoveryFail("an index peeled twice")
                at = self._row_cell0 + self._cols(peel[:, None])
                for field, cell in zip(grid, grid[:, r, pos]):
                    np.subtract.at(field.reshape(-1), at, cell[:, None])
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
        """Stored machine words: every cell's 4, 2 hash words per row, and
        past one level the per-level counters and the depth hash key."""
        levels = self.levels + 1 if self.levels > 1 else 0
        return (self.cells.size + 2 * self.rows + levels
                + self.pow1.words() + self.pow2.words() + 4)
