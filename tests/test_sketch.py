"""Linear sketches: one-sparse cells, the sampler bank, sparse recovery."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcstream.sketch import (_MAX_LIMBS, EMPTY, FAIL, HASH_P, INDEX,
                             PowTable, RecoveryFail, SampleRecovery,
                             _mulmod_exact, derive_seed, fingerprint_prime,
                             grid_geometry, is_prime, nextprime)


def test_derive_seed_deterministic():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


def fresh(seed=9, n=1000, cap=50, samplers=4):
    return SampleRecovery(n_indices=n, capacity=cap, n_samplers=samplers,
                          seed=seed)


# -- one-sparse cells -------------------------------------------------------


def _grid_cells(s):
    return s._verify_cells(s.grid_count, s.grid_index, s.grid_fp1,
                           s.grid_fp2)


def test_detector_zero_vector():
    s = fresh()
    got_i, _ = _grid_cells(s)
    assert len(got_i) == 0
    assert s._verified(0, 0, 0, 0) is None


def test_detector_one_sparse():
    s = fresh()
    s.update(7, +1)
    got_i, got_c = _grid_cells(s)
    assert got_i.tolist() == [7] * s.rows and got_c.tolist() == [1] * s.rows
    s.update(7, +2)
    got_i, got_c = _grid_cells(s)
    assert got_i.tolist() == [7] * s.rows and got_c.tolist() == [3] * s.rows


def test_detector_rejects_two_sparse():
    # soundness sweep: a grid cell holding two or more support indices
    # almost never verifies as one-sparse
    rng = random.Random(0)
    false_pos = 0
    shared = 0
    trials = 2000
    for t in range(trials):
        s = SampleRecovery(n_indices=1000, capacity=1, n_samplers=0, seed=t)
        support = rng.sample(range(1, 1001), rng.randint(2, 5))
        for i in support:
            s.update(i, rng.choice([1, 2, 3]))
        # which cell each index landed in, from the grid's own hashes
        held = np.zeros(s.grid_count.shape, dtype=np.int64)
        for i in support:
            cols = (s.grid_a * i + s.grid_b) % HASH_P % s.buckets
            held[s._rowidx, cols] += 1
        multi = held >= 2
        shared += int(multi.sum())
        cells = [np.where(multi, a, 0) for a in (
            s.grid_count, s.grid_index, s.grid_fp1, s.grid_fp2)]
        if len(s._verify_cells(*cells)[0]):
            false_pos += 1
    assert shared > trials  # the sweep does test shared cells
    assert false_pos / trials < 1e-2


# -- sample recovery --------------------------------------------------------


def test_recovery_trivial_sets():
    s = fresh()
    assert s.recover() == set()
    for i in (2, 9, 13):
        s.update(i, +1)
    assert s.support == 3
    assert s.recover() == {2, 9, 13}


def test_update_then_inverse_restores_state():
    a, b = fresh(seed=4), fresh(seed=4)
    seq = [(i, +1) for i in (3, 8, 8, 40)]
    for i, d in seq:
        a.update(i, d)
    for i, d in seq:
        a.update(i, -d)
    assert a.state_equals(b)


def test_permutation_invariance():
    rng = random.Random(5)
    seq = []
    for _ in range(500):
        seq.append((rng.randint(1, 1000), rng.choice([1, -1])))
    a, b = fresh(seed=6), fresh(seed=6)
    for i, d in seq:
        a.update(i, d)
    for i, d in sorted(seq):
        b.update(i, d)
    assert a.state_equals(b)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 60), min_size=0, max_size=20, unique=True))
def test_recovery_matches_support(support):
    s = SampleRecovery(n_indices=60, capacity=25, n_samplers=0,
                       seed=derive_seed(tuple(support)))
    for i in support:
        s.update(i, +1)
    assert s.recover() == set(support)


def test_sample_empty_and_singleton():
    s = fresh(seed=11)
    assert s.sample(0).kind == EMPTY
    s.update(17, +1)
    got = s.sample(0)
    assert got.kind == INDEX and got.index == 17


def test_sample_index_always_in_support():
    rng = random.Random(13)
    for t in range(40):
        s = fresh(seed=100 + t, samplers=6)
        support = set(rng.sample(range(1, 1001), rng.randint(1, 30)))
        for i in support:
            s.update(i, +1)
        for which in range(6):
            got = s.sample(which)
            if got.kind == INDEX:
                assert got.index in support


def test_sample_bad_index():
    s = fresh()
    with pytest.raises(IndexError):
        s.sample(99)


def test_over_capacity_recovery_gated_by_support():
    s = SampleRecovery(n_indices=500, capacity=4, n_samplers=0, seed=21)
    for i in range(1, 101):
        s.update(i, +1)
    assert s.support == 100  # caller must gate on this
    try:
        got = s.recover()
        assert got <= set(range(1, 101))
    except RecoveryFail:
        pass


def test_support_counter_tracks_deletions():
    s = fresh(seed=31)
    for i in range(1, 9):
        s.update(i, +1)
    for i in range(1, 5):
        s.update(i, -1)
    assert s.support == 4
    assert s.recover() == {5, 6, 7, 8}


@pytest.mark.parametrize("capacity", [1, 2, 3, 5, 10, 50, 254, 1800, 10 ** 5])
@pytest.mark.parametrize("delta", [0.01, 1e-6])
def test_grid_geometry_meets_the_pair_collision_bound(capacity, delta):
    rows, buckets = grid_geometry(capacity, delta)
    assert buckets == 2 * capacity and rows >= 4
    assert capacity ** 2 / buckets ** rows <= delta
    # one row fewer would not meet it, unless the floor of 4 rows binds
    assert rows == 4 or capacity ** 2 / buckets ** (rows - 1) > delta


# capacity -> trials; the default pdpsa and dpsa sizes use 4 rows
_CURVE = {1: 800, 2: 800, 5: 800, 10: 500, 50: 300, 254: 100, 1800: 20}


@pytest.mark.parametrize("capacity", sorted(_CURVE))
def test_recovery_failure_curve_at_full_capacity(capacity):
    # seeded, so every run draws the same supports and hashes
    trials, n = _CURVE[capacity], 10 ** 5
    rng = random.Random(capacity)
    failures = 0
    for t in range(trials):
        s = SampleRecovery(n, capacity, n_samplers=0,
                           seed=derive_seed("curve", capacity, t))
        support = rng.sample(range(1, n + 1), capacity)
        for i in support:
            s.update(i, +1)
        try:
            failures += s.recover() != set(support)
        except RecoveryFail:
            failures += 1
    assert failures / trials <= 0.01


def test_words_positive_and_monotone_in_capacity():
    small = SampleRecovery(64, capacity=4, n_samplers=2, seed=1)
    big = SampleRecovery(64, capacity=32, n_samplers=2, seed=1)
    assert 0 < small.words() < big.words()


# -- deepest-level bank -----------------------------------------------------


def _bases(s):
    """The fingerprint bases r1, r2, redrawn from the sketch's seed."""
    rng = np.random.default_rng(derive_seed(s.seed, "hashes"))
    return int(rng.integers(1, s.p1)), int(rng.integers(1, s.p2))


def _reference_levels(s, ops):
    """All-levels detector values, built straight from the hash pairs.

    Level l of (sampler, rep) sums every update whose index hashes to a
    deepest level >= l: the layout the bank's suffix sums must rebuild.
    """
    shape = s.bank_a.shape + (s.levels,)
    ref = [np.zeros(shape, dtype=object) for _ in range(4)]
    r1, r2 = _bases(s)
    for i, d in ops:
        for which, rep in np.ndindex(s.bank_a.shape):
            h = (int(s.bank_a[which, rep]) * i
                 + int(s.bank_b[which, rep])) % HASH_P
            top = (s.levels - 1 if h == 0 else
                   min(s.levels - 1, (HASH_P // h).bit_length() - 1))
            for lvl in range(top + 1):
                at = (which, rep, lvl)
                ref[0][at] += d
                ref[1][at] += d * i
                ref[2][at] = (ref[2][at] + d * pow(r1, i, s.p1)) % s.p1
                ref[3][at] = (ref[3][at] + d * pow(r2, i, s.p2)) % s.p2
    return ref


def _reference_sample(s, ref, which):
    r1, r2 = _bases(s)
    for rep in range(s.reps):
        for lvl in range(s.levels):
            c, ix, f1, f2 = (int(a[which, rep, lvl]) for a in ref)
            if c == 0 or ix % c:
                continue
            i = ix // c
            if (1 <= i <= s.n and f1 == c * pow(r1, i, s.p1) % s.p1
                    and f2 == c * pow(r2, i, s.p2) % s.p2):
                return i
    return None


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 300), st.sampled_from([1, -1])),
                min_size=1, max_size=40),
       st.integers(1, 4), st.integers(0, 2 ** 32))
def test_bank_suffix_sums_match_all_levels_reference(ops, samplers, seed):
    s = SampleRecovery(n_indices=300, capacity=40, n_samplers=samplers,
                       seed=seed)
    for i, d in ops:
        s.update(i, d)
    ref = _reference_levels(s, ops)
    banks = (s.bank_count, s.bank_index, s.bank_fp1, s.bank_fp2)
    for bank, want, p in zip(banks, ref, (None, None, s.p1, s.p2)):
        got = np.cumsum(bank[..., ::-1], axis=-1)[..., ::-1]
        if p is not None:
            got = got % p
        assert np.array_equal(got, want.astype(np.int64))
    net: dict[int, int] = {}
    for i, d in ops:
        net[i] = net.get(i, 0) + d
    support = {i for i, c in net.items() if c}
    for which in range(samplers):
        got = s.sample(which)
        if not s.support:
            assert got.kind == EMPTY
            continue
        want = _reference_sample(s, ref, which)
        if want is None:
            assert got.kind == FAIL
        else:
            assert got.kind == INDEX and got.index == want
            assert want in support
    assert s.recover() == support


def test_vectorised_check_agrees_with_scalar_on_large_counts():
    s = SampleRecovery(n_indices=10 ** 5, capacity=8, n_samplers=0, seed=4)
    limit = ((1 << 63) - 1) // s.p2  # |count| above this takes Python ints
    rng = random.Random(8)
    r1, r2 = _bases(s)
    rows, cols = s.grid_count.shape
    count = np.zeros((rows, cols), dtype=np.int64)
    index = np.zeros_like(count)
    fp1 = np.zeros_like(count)
    fp2 = np.zeros_like(count)
    magnitudes = [1, 3, limit - 1, limit, limit + 1, 2 * limit,
                  ((1 << 63) - 1) // s.n, 1 << 40]
    for r in range(rows):
        for col in range(cols):
            c = rng.choice(magnitudes) * rng.choice([1, -1])
            i = rng.randint(1, s.n)
            count[r, col] = c
            index[r, col] = c * i
            fp1[r, col] = c * pow(r1, i, s.p1) % s.p1
            fp2[r, col] = c * pow(r2, i, s.p2) % s.p2
            spoil = rng.random()
            if spoil < 0.2:  # not one-sparse by fingerprint
                fp1[r, col] = (fp1[r, col] + 1) % s.p1
            elif spoil < 0.3:
                fp2[r, col] = (fp2[r, col] + 1) % s.p2
            elif spoil < 0.4:  # index sum not a multiple of the count
                index[r, col] += 1
    got_i, got_c = s._verify_cells(count, index, fp1, fp2)
    want = [(s._verified(int(c), int(ix), int(f1), int(f2)), int(c))
            for c, ix, f1, f2 in zip(count.ravel(), index.ravel(),
                                     fp1.ravel(), fp2.ravel())]
    want = [(i, c) for i, c in want if i is not None]
    assert list(zip(got_i.tolist(), got_c.tolist())) == want
    assert any(abs(c) > limit for _, c in want)
    assert any(abs(c) <= limit for _, c in want)


def test_recover_with_weights_past_the_int64_product_bound():
    s = SampleRecovery(n_indices=60, capacity=4, n_samplers=2, seed=12)
    big = 1 << 31
    for _ in range(4):
        s.update(5, big)  # count 2^33, and 2^33 * p2 > 2^63
    s.update(9, 3)
    assert 4 * big * s.p2 >= 1 << 63
    assert s.recover() == {5, 9}
    assert all(s.sample(w).index in (5, 9) for w in range(2))


# -- fingerprint power tables -----------------------------------------------


def _fingerprint_primes(n_indices):
    p1 = fingerprint_prime(max(n_indices * n_indices, 1 << 30))
    return p1, fingerprint_prime(p1)


# (n_indices) of a pdpsa vertex sketch at n=600, and of the dpsa edge
# sketch at n=600 and n=2000
_TABLE_SIZES = (600, 600 * 599 // 2, 2000 * 1999 // 2)


@pytest.mark.parametrize("n", _TABLE_SIZES)
def test_pow_table_matches_pow(n):
    rng = random.Random(n)
    for p in _fingerprint_primes(n):
        r = rng.randrange(1, p)
        t = PowTable(r, p, n)
        s = t.shift
        assert (1 << s) >= math.isqrt(n) and t.words() <= 3 * math.isqrt(n) + 3
        at = [0, 1, (1 << s) - 1, 1 << s, n, n - 1]
        at += [rng.randint(0, n) for _ in range(300)]
        want = [pow(r, i, p) for i in at]
        assert [t(i) for i in at] == want
        assert t.gather(np.array(at, dtype=np.int64)).tolist() == want


def _prev_prime(n):
    while not is_prime(n):
        n -= 1
    return n


def test_mulmod_exact_at_the_edges_of_each_path():
    plain_top = _prev_prime(math.isqrt((1 << 63) - 1))  # p^2 < 2^63
    # L limbs of 62 - b bits cover a b-bit prime while b <= 62 L / (L + 1)
    limb_top = _prev_prime((1 << (62 * _MAX_LIMBS // (_MAX_LIMBS + 1))) - 1)
    past = nextprime(limb_top)  # the Python-int fallback
    assert _MAX_LIMBS * (62 - limb_top.bit_length()) >= limb_top.bit_length()
    assert _MAX_LIMBS * (62 - past.bit_length()) < past.bit_length()
    rng = random.Random(3)
    for p in (1 << 30, plain_top, nextprime(plain_top), limb_top, past):
        a = [p - 1, p - 1, 0, 1, p - 2]
        b = [p - 1, 1, p - 1, p - 1, p - 2]
        a += [rng.randrange(p) for _ in range(200)]
        b += [rng.randrange(p) for _ in range(200)]
        got = _mulmod_exact(np.array(a, dtype=np.int64),
                            np.array(b, dtype=np.int64), p)
        assert got.tolist() == [x * y % p for x, y in zip(a, b)]


class _PowByPython:
    """Fingerprint powers from Python ``pow``, the tables' reference."""

    def __init__(self, r, p):
        self.r, self.p = r, p

    def __call__(self, i):
        return pow(self.r, i, self.p)

    def gather(self, i):
        return np.array([pow(self.r, int(j), self.p) for j in i],
                        dtype=np.int64)


@pytest.mark.parametrize("n,samplers", [(600, 3)] + [
    (n, 0) for n in _TABLE_SIZES[1:]])
def test_tables_build_the_same_sketch_as_pow(n, samplers):
    rng = random.Random(n)
    for seed in range(3):
        a = SampleRecovery(n, capacity=30, n_samplers=samplers, seed=seed)
        b = SampleRecovery(n, capacity=30, n_samplers=samplers, seed=seed)
        r1, r2 = _bases(a)
        b.pow1, b.pow2 = _PowByPython(r1, a.p1), _PowByPython(r2, a.p2)
        # index n reads the last entry of each ``hi`` table
        for i in rng.sample(range(1, n), 29) + [n]:
            d = rng.choice([1, 2, -1])
            a.update(i, d)
            b.update(i, d)
        assert a.state_equals(b)
        assert a.recover() == b.recover()
        for which in range(samplers):
            assert a.sample(which) == b.sample(which)


# -- primes -----------------------------------------------------------------


def _next_prime_by_trial(n):
    m = n + 1
    while m < 2 or any(m % q == 0 for q in range(2, math.isqrt(m) + 1)):
        m += 1
    return m


def test_nextprime_matches_trial_division():
    for n in range(-3, 5000):
        assert nextprime(n) == _next_prime_by_trial(n)
    for n in (10 ** 9, 2 ** 31, 999_999_999_989):
        assert nextprime(n) == _next_prime_by_trial(n)


def test_nextprime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    n600 = 600 * 599 // 2
    for n in (2 ** 30, 2 ** 61, n600 ** 2, 10 ** 18, 2 ** 62 + 12345,
              10 ** 24, 561, 2 ** 64 - 59):
        assert nextprime(n) == int(sympy.nextprime(n))
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 1 << 70)
        assert nextprime(n) == int(sympy.nextprime(n))
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)  # strong pseudoprimes to many small bases
        assert is_prime(n) == bool(sympy.isprime(n))


def test_is_prime_refuses_beyond_exact_range():
    with pytest.raises(ValueError):
        is_prime(10 ** 25)
