"""Linear sketches over sparse integer vectors indexed by [1, N].

Two layers, both held by ``SampleRecovery`` in flat numpy arrays, so
one update is a handful of vectorised operations:

* a bank of level-sampling l0-samplers, each returning a support element
  or Fail;
* a peelable bucket grid giving exact support recovery while the
  support fits within its capacity.

Both are built from one-sparse detectors: (count, index-weighted sum,
fingerprint) cells that recognise a vector with one nonzero entry.  A
cell's fingerprints are sums of count * r^i modulo two primes near N^2;
the powers r^i come from two tables of about sqrt(N) entries per prime
(``PowTable``), multiplied exactly in int64 (``_mulmod_exact``).  The
grid has 2 * capacity buckets per row and only as many rows as the
pair-collision bound asks (``grid_geometry``), so its size does not
grow with N.

All structures are linear: the state after a sequence of updates depends
only on the net vector, never on update order.

Deepest-level layout.  A level sampler's detector at level l sums every
index whose deepest level is >= l.  ``SampleRecovery`` stores each index
only once per (sampler, repetition), in the cell of its deepest level, so
an update writes one cell per repetition instead of every level up to
the deepest.  By linearity the level-l detector is the suffix sum of the
stored cells over levels l..L-1 (fingerprints reduced mod their prime),
which ``sample`` forms at read time, one repetition at a time.  This is
the l0-sampler layout of Cormode & Firmani (2014) and of Jowhari,
Saglam & Tardos (2011).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

# 31-bit Mersenne prime used by the level / bucket hashes.
HASH_P = (1 << 31) - 1
_INT64_MAX = (1 << 63) - 1


class RecoveryFail(Exception):
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


def _mulmod(c: np.ndarray, r: np.ndarray, p: int) -> np.ndarray:
    """c * r mod p elementwise for 0 <= r < p, exact for any int64 ``c``.

    int64 holds c * r while |c| * p < 2^63; larger |c| take Python ints.
    """
    out = c * r % p
    lim = _INT64_MAX // p
    big = (c > lim) | (c < -lim)
    if big.any():
        out[big] = [int(cc) * int(rr) % p for cc, rr in zip(c[big], r[big])]
    return out


# limb products stay exact in int64 up to this many limbs, i.e. p < 2^46
_MAX_LIMBS = 3


def _mulmod_exact(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a * b mod p elementwise for 0 <= a, b < p, exact.

    Where p^2 < 2^63 the int64 product is exact.  Otherwise b is split
    into limbs of t = 62 - bits(p) bits and folded in Horner order:
    acc * 2^t and a * limb each stay below 2^62, so every step is exact
    in int64.  Past ``_MAX_LIMBS`` limbs, Python ints.
    """
    if p * p <= _INT64_MAX:
        return a * b % p
    bits = p.bit_length()
    t = 62 - bits
    if _MAX_LIMBS * t < bits:
        return np.array([int(x) * int(y) % p for x, y in zip(a, b)],
                        dtype=np.int64)
    limbs = -(-bits // t)
    mask = (1 << t) - 1
    acc = np.zeros_like(a)
    for j in reversed(range(limbs)):
        acc = ((acc << t) + a * ((b >> (j * t)) & mask)) % p
    return acc


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


_prime_cache: dict[int, int] = {}


def fingerprint_prime(lower: int) -> int:
    """Smallest prime strictly above ``lower`` (cached)."""
    if lower not in _prime_cache:
        _prime_cache[lower] = nextprime(lower)
    return _prime_cache[lower]


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


def _reps_for(fail_rate: float) -> int:
    # some level leaves about one survivor, so a repetition succeeds with
    # probability >= 1/4; independent repetitions push Fail below the rate
    return max(4, math.ceil(math.log(fail_rate) / math.log(0.75)))


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


# ---------------------------------------------------------------------------
# s-sparse recovery


class SampleRecovery:
    """Hybrid sampler bank + peelable recovery grid, one linear structure.

    * ``n_samplers`` independent sampler instances (distinct seeds) give
      per-query sampling without replacement across sampler indices.
      Each index is stored at its deepest level only (see the module
      docstring); ``sample`` forms the level sums.
    * an R x B grid of one-sparse buckets is peeled for exact recovery
      whenever the net support fits within ``capacity``.  B = 2 * capacity
      and R = max(4, ceil(ln(capacity^2 / delta) / ln B)), from the
      pair-collision bound (``grid_geometry``): 4 rows for both pdpsa
      and dpsa at their default sizes.
    * ``support`` is an exact signed counter of net insertions; it equals
      the l0 norm under valid +/-1 streams.

    One-sparse verification uses two independent prime fingerprints,
    p1 = nextprime(max(N^2, 2^30)) and p2 = nextprime(p1): about 2^30 for
    a pdpsa vertex sketch, 3.2e10 (2^35) for the dpsa edge sketch at
    n=600 and 4.0e12 (2^42) at n=2000.  Stored fingerprints are reduced
    below their prime, so the arrays stay within int64 while
    2 * p2 < 2^63.  The powers r^i come from two ``PowTable``s of about
    sqrt(N) entries each.  ``recover`` checks all buckets at once in
    int64: it forms r^i with ``_mulmod_exact`` (a plain product where
    p^2 < 2^63, a limb split below 2^46, Python ints past that) and
    count * r^i exactly while |count| * p < 2^63; cells with a larger
    |count| take Python integers.
    """

    def __init__(self, n_indices: int, capacity: int, n_samplers: int,
                 seed: int, delta: float = 0.01,
                 sampler_fail: float | None = None,
                 track_contents: bool = False):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.n = n_indices
        self.capacity = capacity
        self.n_samplers = n_samplers
        self.seed = seed
        self.support = 0

        self.levels = max(1, math.ceil(math.log2(max(n_indices, 2)))) + 1
        self.reps = _reps_for(sampler_fail if sampler_fail is not None
                              else delta)
        self.rows, self.buckets = grid_geometry(capacity, delta)

        self.p1 = fingerprint_prime(max(n_indices * n_indices, 1 << 30))
        self.p2 = fingerprint_prime(self.p1)
        rng = np.random.default_rng(derive_seed(seed, "hashes"))
        r1 = int(rng.integers(1, self.p1))
        r2 = int(rng.integers(1, self.p2))
        self.pow1 = PowTable(r1, self.p1, n_indices)
        self.pow2 = PowTable(r2, self.p2, n_indices)

        # sampler bank hash coefficients, one pair per (sampler, rep)
        shape = (n_samplers, self.reps)
        self.bank_a = rng.integers(1, HASH_P, size=shape, dtype=np.int64)
        self.bank_b = rng.integers(0, HASH_P, size=shape, dtype=np.int64)
        zeros = np.zeros(shape + (self.levels,), dtype=np.int64)
        # flat offset of level 0 of each (sampler, rep) in the bank arrays
        self._bank_cell0 = np.arange(0, zeros.size, self.levels,
                                     dtype=np.int64).reshape(shape)
        self.bank_count = zeros.copy()
        self.bank_index = zeros.copy()
        self.bank_fp1 = zeros.copy()
        self.bank_fp2 = zeros.copy()

        # recovery grid, one bucket hash pair per row
        self.grid_a = rng.integers(1, HASH_P, size=self.rows, dtype=np.int64)
        self.grid_b = rng.integers(0, HASH_P, size=self.rows, dtype=np.int64)
        gz = np.zeros((self.rows, self.buckets), dtype=np.int64)
        self.grid_count = gz.copy()
        self.grid_index = gz.copy()
        self.grid_fp1 = gz.copy()
        self.grid_fp2 = gz.copy()

        self._rowidx = np.arange(self.rows)
        # exact mirror of net contents; diagnostic/test aid only
        self.mirror: dict[int, int] | None = {} if track_contents else None

    # -- updates -----------------------------------------------------------

    def update(self, index: int, delta: int) -> None:
        if not 1 <= index <= self.n:
            raise ValueError(f"index {index} out of [1, {self.n}]")
        self.support += delta
        d = int(delta)
        rp1, rp2 = self.pow1(index), self.pow2(index)

        if self.n_samplers:
            h = (self.bank_a * index + self.bank_b) % HASH_P
            # deepest level floor(log2(HASH_P / h)), read off the float's
            # exponent; exact, since HASH_P / h never lies within a
            # factor 1 + 2^-32 below a power of two
            lstar = np.minimum(np.frexp(HASH_P / np.maximum(h, 1))[1],
                               self.levels) - 1
            lstar[h == 0] = self.levels - 1
            # one distinct cell per (sampler, rep): the deepest level
            cells = self._bank_cell0 + lstar
            self.bank_count.reshape(-1)[cells] += d
            self.bank_index.reshape(-1)[cells] += d * index
            for bank, rp, p in ((self.bank_fp1, rp1, self.p1),
                                (self.bank_fp2, rp2, self.p2)):
                flat = bank.reshape(-1)
                v = flat[cells] + d * rp % p  # in [0, 2p)
                v -= p * (v >= p)
                flat[cells] = v

        buckets = (self.grid_a * index + self.grid_b) % HASH_P % self.buckets
        self.grid_count[self._rowidx, buckets] += d
        self.grid_index[self._rowidx, buckets] += d * index
        self.grid_fp1[self._rowidx, buckets] = (
            self.grid_fp1[self._rowidx, buckets]
            + d * rp1) % self.p1
        self.grid_fp2[self._rowidx, buckets] = (
            self.grid_fp2[self._rowidx, buckets]
            + d * rp2) % self.p2

        if self.mirror is not None:
            self.mirror[index] = self.mirror.get(index, 0) + delta
            if self.mirror[index] == 0:
                del self.mirror[index]

    # -- queries -----------------------------------------------------------

    def _verified(self, c: int, ix: int, f1: int, f2: int) -> int | None:
        if c == 0 or ix % c != 0:
            return None
        i = ix // c
        if not 1 <= i <= self.n:
            return None
        if f1 != c * self.pow1(i) % self.p1:
            return None
        if f2 != c * self.pow2(i) % self.p2:
            return None
        return i

    def _verify_cells(self, count: np.ndarray, index: np.ndarray,
                      fp1: np.ndarray, fp2: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """(index, weight) of every one-sparse cell, in row-major order.

        The same test as ``_verified``, over whole arrays at once.
        """
        pos = np.flatnonzero(count)
        c = count.reshape(-1)[pos]
        ix = index.reshape(-1)[pos]
        i = ix // c
        ok = (ix % c == 0) & (i >= 1) & (i <= self.n)
        pos, c, i = pos[ok], c[ok], i[ok]
        ok = ((fp1.reshape(-1)[pos] == _mulmod(c, self.pow1.gather(i),
                                               self.p1))
              & (fp2.reshape(-1)[pos] == _mulmod(c, self.pow2.gather(i),
                                                 self.p2)))
        return i[ok], c[ok]

    def sample(self, which: int) -> SampleOutcome:
        if not 0 <= which < self.n_samplers:
            raise IndexError(f"sampler {which} of {self.n_samplers}")
        if self.support == 0:
            return SampleOutcome(EMPTY)
        banks = (self.bank_count[which], self.bank_index[which],
                 self.bank_fp1[which], self.bank_fp2[which])
        for rep in range(self.reps):
            # level l's detector sums the cells of levels l..L-1; the sums
            # come out deepest first, so walk them backwards from level 0
            sums = [list(accumulate(reversed(b[rep].tolist())))
                    for b in banks]
            for c, ix, f1, f2 in zip(*map(reversed, sums)):
                i = self._verified(c, ix, f1 % self.p1, f2 % self.p2)
                if i is not None:
                    return SampleOutcome(INDEX, i)
        return SampleOutcome(FAIL)

    def recover(self) -> set[int]:
        """Exact support set via grid peeling.

        Reliable when the true support fits in ``capacity``; beyond that
        the peeling either stalls (RecoveryFail) or yields a strict
        subset, so callers must gate on the support counter.
        """
        count = self.grid_count.copy()
        index = self.grid_index.copy()
        fp1 = self.grid_fp1.copy()
        fp2 = self.grid_fp2.copy()
        found: set[int] = set()

        for _ in range(self.buckets * self.rows + 1):
            if not count.any() and not index.any() and not fp1.any() \
                    and not fp2.any():
                return found
            peel, weight = self._verify_cells(count, index, fp1, fp2)
            # an index's first one-sparse bucket gives its weight
            _, first = np.unique(peel, return_index=True)
            first.sort()
            peel, weight = peel[first], weight[first]
            if found:
                fresh = ~np.isin(peel, list(found))
                peel, weight = peel[fresh], weight[fresh]
            if not len(peel):
                raise RecoveryFail(
                    f"peeling stalled with {int(np.abs(count).sum())} "
                    f"residual mass")
            found.update(peel.tolist())
            cols = (self.grid_a * peel[:, None] + self.grid_b) % HASH_P \
                % self.buckets
            at = (self._rowidx, cols)
            w = weight[:, None]
            np.subtract.at(count, at, w)
            np.subtract.at(index, at, w * peel[:, None])
            for fp, table, p in ((fp1, self.pow1, self.p1),
                                 (fp2, self.pow2, self.p2)):
                np.subtract.at(fp, at,
                               _mulmod(weight, table.gather(peel), p)[:, None])
                fp[at] %= p
        raise RecoveryFail("peeling did not terminate")

    # -- comparison (linearity tests) -------------------------------------

    def state_equals(self, other: "SampleRecovery") -> bool:
        return (self.support == other.support
                and np.array_equal(self.bank_count, other.bank_count)
                and np.array_equal(self.bank_index, other.bank_index)
                and np.array_equal(self.bank_fp1, other.bank_fp1)
                and np.array_equal(self.bank_fp2, other.bank_fp2)
                and np.array_equal(self.grid_count, other.grid_count)
                and np.array_equal(self.grid_index, other.grid_index)
                and np.array_equal(self.grid_fp1, other.grid_fp1)
                and np.array_equal(self.grid_fp2, other.grid_fp2))

    def words(self) -> int:
        """Stored machine words, for space-census reports."""
        bank = 4 * self.bank_count.size + 2 * self.bank_a.size
        grid = 4 * self.grid_count.size + 2 * self.grid_a.size
        return bank + grid + self.pow1.words() + self.pow2.words() + 4
