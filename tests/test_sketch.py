"""Linear sketches: one-sparse cells, sparse recovery, the level grids."""

import hashlib
import math
import random
from fractions import Fraction
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vcstream import sketch
from vcstream.core import Config
from vcstream.dpsa import DpsaState
from vcstream.sketch import (EMPTY, FAIL, INDEX, MAX_INDICES, MAX_ROWS,
                             MAX_WORDS, PRIME, RecoveryFail, SampleRecovery,
                             _mulmod_exact, _packing, _pair_buckets,
                             derive_seed, grid_geometry, level_capacity,
                             read_bound)


def test_derive_seed_deterministic():
    assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
    assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)


def test_derive_seed_is_hashlibs_blake2b():
    # the seed chain is the same with or without hashlib's blake2b
    for parts in ((1, "a", 2), (0, "vertex-sketch", 7, 3), ("x",)):
        h = hashlib.blake2b(repr(parts).encode(), digest_size=8).digest()
        assert derive_seed(*parts) == int.from_bytes(h, "big") >> 1


# x: the threshold 2k+1 of a pdpsa vertex sketch, sampled with capacity
# x (5 at k=2); 0 for a sketch that is not sampled, such as dpsa's
@pytest.mark.parametrize("n, x", [(600, 5), (179700, 0)])
def test_bases_and_row_keys_come_from_the_seed(n, x):
    a, b, c = (SampleRecovery(n_indices=n, capacity=5, seed=s,
                              sampled=x > 0)
               for s in (3, 3, 4))
    for s in (a, b, c):
        assert 0 <= s.r < PRIME - n
        assert len(set(s.hash_keys.tolist())) == s.rows
    assert a.r == b.r != c.r
    assert np.array_equal(a.hash_keys, b.hash_keys)
    assert not np.array_equal(a.hash_keys, c.hash_keys)


def fresh(seed=9, n=1000, cap=50):
    return SampleRecovery(n_indices=n, capacity=cap, seed=seed,
                          sampled=True)


# -- one-sparse cells -------------------------------------------------------


def _fingerprint(s, i, c=1):
    """c (i + r)^-1 mod P in Python ints: the fingerprint of c e_i."""
    return c * pow(i + s.r, -1, PRIME) % PRIME


def _verified(s, c, ix, fp):
    """The one-sparse test on one cell, in Python ints: the reference for
    ``SampleRecovery._verify_cells``."""
    if c == 0 or ix % c != 0:
        return None
    i = ix // c
    if not 1 <= i <= s.n:
        return None
    if fp != _fingerprint(s, i, c):
        return None
    return i


def _fields(s):
    """(count, index sum, fingerprint) of every cell, decoded, as
    (field, level, row, bucket)."""
    return s._decode(s.cells).reshape(3, s.levels, s.rows, s.buckets)


def _stored(s, c, ix, fp):
    """The stored words of a cell (c, ix, fp): (c 2^K + ix, fp), with
    K = ``_shift``."""
    return [(c << s._shift) + ix, fp]


_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(x):
    """The splitmix64 output for state x (Steele, Lea & Flood, 2014)."""
    z = (x + _GAMMA) % 2 ** 64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 % 2 ** 64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2 ** 64
    return z ^ (z >> 31)


# x as in the test above; seeds past 2^64 and below 0 are taken mod 2^64
@pytest.mark.parametrize("n, x", [(600, 5), (179700, 0)])
@pytest.mark.parametrize("seed", [0, 3, 2 ** 64 + 3, -1, 2 ** 63 - 1])
def test_keys_are_the_seeds_splitmix64_outputs(n, x, seed):
    # the seed is a splitmix64 state; its successive outputs are r mod
    # P - N, the depth key and the row keys
    s = SampleRecovery(n_indices=n, capacity=5, seed=seed, sampled=x > 0)
    out = [_splitmix64(seed + j * _GAMMA) for j in range(s.rows + 2)]
    assert s.r == out[0] % (PRIME - n)
    assert s.depth_key == out[1]
    assert s.hash_keys.tolist() == out[2:]


def _bucket(s, row, i):
    """Bucket of index i in a row: splitmix64 of i + the row's key, mod B;
    the reference for ``SampleRecovery._cols`` and ``_cells_of``."""
    return _splitmix64(i + int(s.hash_keys[row])) % s.buckets


# x as above: the capacity is x for a pdpsa vertex sketch
@pytest.mark.parametrize("n, cap, x", [(1000, 50, 0), (179700, 1800, 0),
                                       (600, 5, 5)])
def test_bucket_hashes_match_splitmix64(n, cap, x):
    s = SampleRecovery(n_indices=n, capacity=cap, seed=n, sampled=x > 0)
    rng = random.Random(n)
    idx = [1, n] + [rng.randint(1, n) for _ in range(300)]
    want = [[_bucket(s, r, i) for r in range(s.rows)] for i in idx]
    assert s._cols(np.array(idx)[:, None]).tolist() == want
    for i, cols in zip(idx, want):
        assert (s._cells_of(i, 0) - s._row_cell0).tolist() == cols


def _grid_cells(s):
    """One-sparse cells of the grid that holds every index."""
    return s._verify_cells(*s._decode(s._level_sum(0)))


def test_detector_zero_vector():
    s = fresh()
    got_i, _, _ = _grid_cells(s)
    assert len(got_i) == 0
    assert _verified(s, 0, 0, 0) is None


def test_detector_one_sparse():
    s = fresh()
    s.update(7, +1)
    got_i, got_c, got_pos = _grid_cells(s)
    assert got_i.tolist() == [7] * s.rows and got_c.tolist() == [1] * s.rows
    assert got_pos.tolist() == (s._row_cell0 + s._cols(7)).tolist()
    s.update(7, +2)
    got_i, got_c, _ = _grid_cells(s)
    assert got_i.tolist() == [7] * s.rows and got_c.tolist() == [3] * s.rows


def test_detector_rejects_two_sparse():
    # soundness sweep: a grid cell holding two or more support indices
    # almost never verifies as one-sparse
    rng = random.Random(0)
    false_pos = 0
    shared = 0
    trials = 2000
    for t in range(trials):
        s = SampleRecovery(n_indices=1000, capacity=2, seed=t)
        support = rng.sample(range(1, 1001), rng.randint(2, 5))
        for i in support:
            s.update(i, rng.choice([1, 2, 3]))
        # which cell each index landed in, from the grid's own hashes
        held = np.zeros((s.rows, s.buckets), dtype=np.int64)
        for i in support:
            for r in range(s.rows):
                held[r, _bucket(s, r, i)] += 1
        multi = held >= 2
        shared += int(multi.sum())
        cells = np.where(multi, s._level_sum(0), 0)
        if len(s._verify_cells(*s._decode(cells))[0]):
            false_pos += 1
    assert shared > trials  # the sweep does test shared cells
    assert false_pos / trials < 1e-2


# -- sample recovery --------------------------------------------------------


@pytest.mark.parametrize("sampled", [True, False])
def test_holds_agrees_with_a_rebuilt_sketch(sampled, monkeypatch):
    # a sampled sketch's 40 indices span its levels; each variant is read
    # as held exactly when its cells equal those of the indicator
    rng = random.Random(11)
    base = rng.sample(range(1, 1001), 40)
    spare = next(i for i in range(1, 1001) if i not in base)

    def built(writes):
        s = SampleRecovery(n_indices=1000, capacity=50, seed=3,
                           sampled=sampled)
        for i, d in writes:
            s.update(i, d)
        return s

    want = built([(i, 1) for i in base])
    assert sampled == (len(set(map(want._depth, base))) > 1)
    variants = {
        "same": [(i, 1) for i in reversed(base)],
        "missing": [(i, 1) for i in base[1:]],
        "extra": [(i, 1) for i in base + [spare]],
        "swapped": [(i, 1) for i in base[1:] + [spare]],
        "weight-2": [(i, 1) for i in base[1:]] + [(base[0], 2)],
    }
    for headroom in (sketch._HEADROOM, 2, 7):
        # a small headroom splits each row's fingerprint sum into blocks
        monkeypatch.setattr(sketch, "_HEADROOM", headroom)
        for name, writes in variants.items():
            s = built(writes)
            assert s.holds(base) == s.state_equals(want) == (name == "same")
            # each 0/1 vector is held as its own indicator
            assert s.holds(i for i, _ in writes) == (name != "weight-2")
    assert not want.holds([*base[1:], 0])
    assert not want.holds([*base[1:], 1001])
    assert fresh().holds([])


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
    s = SampleRecovery(n_indices=60, capacity=25,
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
        s = fresh(seed=100 + t, cap=6)
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
        s.sample(-1)


def test_over_capacity_recovery_gated_by_support():
    s = SampleRecovery(n_indices=500, capacity=4, seed=21)
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


def _reference_peel(s, grid):
    """The all-rows peel that ``_peel`` replaced: each pass verifies every
    cell, keeps each index's first one-sparse cell that names an index
    not yet found, and recomputes in Python ints the fingerprints it
    subtracts."""
    count, index, fp = grid
    rowidx = np.arange(s.rows)
    found = set()
    for _ in range(count.size + 1):
        if not grid.any():
            return found
        peel, weight, _ = s._verify_cells(count, index, fp)
        _, first = np.unique(peel, return_index=True)
        first.sort()
        peel, weight = peel[first], weight[first]
        if found:
            fresh = ~np.isin(peel, list(found))
            peel, weight = peel[fresh], weight[fresh]
        if not len(peel):
            raise RecoveryFail("stalled")
        found.update(peel.tolist())
        at = (rowidx, s._cols(peel[:, None]))
        w = weight[:, None]
        np.subtract.at(count, at, w)
        np.subtract.at(index, at, w * peel[:, None])
        prints = np.array([_fingerprint(s, int(i), int(c))
                           for i, c in zip(peel, weight)], dtype=np.int64)
        np.subtract.at(fp, at, prints[:, None])
        fp[at] %= PRIME
    raise RecoveryFail("did not terminate")


def _peeled(peel, grid):
    try:
        return peel(grid)
    except RecoveryFail:
        return "fail"


def _filled(n, cap, seed, size, weights=(1,), **kw):
    s = SampleRecovery(n_indices=n, capacity=cap, seed=seed, **kw)
    rng = random.Random(seed)
    for i in rng.sample(range(1, n + 1), size):
        s.update(i, rng.choice(weights))
    return s


def test_row_peel_matches_the_all_rows_peel():
    dpsa_n = 600 * 599 // 2  # the edge slots of dpsa at n=600
    sketches = []
    # dpsa edge sketches filled to capacity, through ``recover``
    for cap, trials in ((50, 300), (120, 100), (254, 40), (600, 12),
                        (1800, 4)):
        for t in range(trials):
            s = _filled(dpsa_n, cap, t, cap)
            assert _peeled(lambda g: s.recover(), None) \
                == _peeled(lambda g: _reference_peel(s, g),
                           s._decode(s._level_sum(0)))
            sketches.append(s)
    # grids filled past the peeling threshold, weighted vectors, and the
    # level sums of pdpsa vertex sketches at n=600, k=2, each with the
    # weight its counters hold
    grids = []
    for t in range(200):
        s = _filled(200, 10, t, random.Random(t).randint(40, 90))
        grids.append((s, s._level_sum(0), s.support))
    for t in range(200):
        s = _filled(1000, 30, t, random.Random(t).randint(1, 200),
                    weights=(-3, -2, -1, 1, 2, 3, 1 << 20))
        grids.append((s, s._level_sum(0), s.support))
    for t in range(100):
        s = _filled(600, 5, t, random.Random(t).randint(1, 60),
                    fail=0.01 / 1200, sampled=True)
        grids += [(s, s._level_sum(lvl), sum(s.level_support[lvl:]))
                  for lvl in range(s.levels)]
    outcomes = []
    for s, grid, weight in grids:
        got = _peeled(lambda g: s._peel(g, weight), grid.copy())
        assert got == _peeled(lambda g: _reference_peel(s, g),
                              s._decode(grid))
        outcomes.append(got == "fail")
    assert len(sketches) + len(outcomes) >= 1000
    assert 0 < sum(outcomes) < len(outcomes)


@pytest.mark.parametrize("row", [0, 1])
def test_an_index_peeled_twice_stalls(row):
    # a forged cell that verifies as index 5, in an empty bucket of the
    # row of 5's first bucket or of the row after it
    s = SampleRecovery(n_indices=1000, capacity=8, seed=3)
    for i in (5, 17, 40):
        s.update(i, +1)
    assert s.recover() == {5, 17, 40}
    grid = s.grids[:, 0, row]
    col = next(c for c in range(s.buckets) if not grid[:, c].any())
    grid[:, col] = _stored(s, 1, 5, _fingerprint(s, 5))
    with pytest.raises(RecoveryFail, match="peeled twice"):
        s.recover()
    with pytest.raises(RecoveryFail):
        _reference_peel(s, s._decode(s._level_sum(0)))


def test_a_peel_that_disagrees_with_its_counters_fails():
    # cells and counters must agree: a whole recovery compares the weight
    # it peeled with ``support``, a peeled level with its counters' suffix
    s = SampleRecovery(n_indices=1000, capacity=8, seed=2, sampled=True)
    for i in (4, 9, 30):
        s.update(i, +1)
    s.support += 1
    with pytest.raises(RecoveryFail, match="peeled weight 3, counters 4"):
        s.recover()
    assert s.sample(0).kind == FAIL
    s.support -= 1
    assert s.recover() == {4, 9, 30}
    for i in range(100, 400):
        s.update(i, +1)
    assert s.sample(0).kind == INDEX
    # a whole peel of a level's subsample compares its weight with the
    # counters' suffix
    lvl = s._fit_level()
    weight = sum(s.level_support[lvl:])
    s.level_support = [c + 1 for c in s.level_support]
    with pytest.raises(RecoveryFail, match=f"peeled weight {weight}, "
                       f"counters {weight + s.levels - lvl}"):
        s._peel(s._level_sum(lvl), sum(s.level_support[lvl:]))
    # a read past capacity is partial, and not checked against the
    # counters: with every level counter off by one it still names
    # indices of the support
    s._held = None
    got = s.recover()
    assert len(got) >= s.capacity and got <= {4, 9, 30, *range(100, 400)}


@pytest.mark.parametrize("capacity", [1, 2, 3, 5, 10, 50, 254, 1800, 10 ** 5])
@pytest.mark.parametrize("delta", [0.01, 1e-6])
def test_grid_geometry_meets_the_pair_collision_bound(capacity, delta):
    # two indices share a bucket in every row with probability B^-R; the
    # pairs are the s = 2 term of the stall bound
    rows, buckets = grid_geometry(capacity, delta, MAX_WORDS // 2)
    assert math.comb(capacity, 2) / buckets ** rows <= delta


@pytest.mark.parametrize("capacity", [1, 2, 3, 5, 10, 50, 254, 1800, 10 ** 5])
@pytest.mark.parametrize("delta", [0.01, 1e-6])
def test_grid_geometry_is_the_smallest_grid_within_the_stall_bound(capacity,
                                                                   delta):
    rows, buckets = grid_geometry(capacity, delta, MAX_WORDS // 2)
    assert read_bound(capacity, capacity, rows, buckets) <= delta
    # one bucket fewer breaks the bound
    assert buckets == 1 or read_bound(capacity, capacity, rows,
                                      buckets - 1) > delta
    # no number of rows does better: at each R, the most buckets that
    # give fewer cells, or as many with fewer rows, break the bound
    cells = rows * buckets
    for r in range(1, MAX_ROWS + 1):
        b = (cells - (r >= rows)) // r
        assert b < 1 or read_bound(capacity, capacity, r, b) > delta, r


@pytest.mark.parametrize("capacity", [1, 2, 3, 5, 10, 50, 254, 1800, 10 ** 5])
@pytest.mark.parametrize("delta", [0.01, 1e-6])
def test_least_cells_bound_the_grid(capacity, delta):
    # the grid's cells are the least that a cap on cells admits: one cell
    # fewer and no grid meets the target.  A peel empties a distinct cell
    # for each index, so they are at least the capacity
    rows, buckets = grid_geometry(capacity, delta, MAX_WORDS // 2)
    cells = rows * buckets
    assert capacity <= cells
    assert grid_geometry(capacity, delta, cells) == (rows, buckets)
    assert grid_geometry(capacity, delta, cells - 1) is None


def _meets_both(capacity, need, rows, buckets, target):
    """``grid_geometry``'s two requirements, one size at a time: a whole
    peel within a set of min(2 need, capacity) indices, and a read of
    need of every size s in (need, capacity]."""
    whole = min(2 * need, capacity)
    return (read_bound(whole, whole, rows, buckets) <= target
            and all(read_bound(s, need, rows, buckets) <= target
                    for s in range(need + 1, capacity + 1)))


@pytest.mark.parametrize("capacity, need, target", [
    (40, 5, 0.01 / 1200), (45, 5, 0.01 / 20000), (73, 17, 0.01 / 20000),
    (12, 3, 0.01), (5, 1, 0.1), (3, 1, 0.15)])
def test_grid_geometry_past_need_is_the_smallest_that_meets_both(
        capacity, need, target):
    rows, buckets = grid_geometry(capacity, target, MAX_WORDS // 2, need)
    assert _meets_both(capacity, need, rows, buckets, target)
    assert buckets == 1 or not _meets_both(capacity, need, rows,
                                           buckets - 1, target)
    cells = rows * buckets
    for r in range(1, MAX_ROWS + 1):
        b = (cells - (r >= rows)) // r
        assert b < 1 or not _meets_both(capacity, need, r, b, target), r


def test_the_short_read_bound_is_the_stall_bound_within_need():
    # up to need indices, a read of need of them is a whole peel
    for rows, buckets in ((1, 1), (3, 6), (5, 20), (6, 33)):
        for need in (1, 3, 5, 17):
            for size in range(1, need + 1):
                assert read_bound(size, need, rows, buckets) \
                    == read_bound(size, size, rows, buckets)


def test_read_bound_matches_a_pure_python_reference():
    # the sum over j > s - need, j >= 2, of C(s, j) Q_j(B)^R, each Q_j(B)
    # counted over all B^j assignments; 0 below two indices
    chance = {(j, b): _no_singleton_by_enumeration(j, b)
              for j in range(2, 7) for b in range(1, 6)}
    for size, b, rows in product(range(1, 7), range(1, 6), (1, 2, 5)):
        for need in range(1, size + 2):
            want = sum(math.comb(size, j) * chance[j, b] ** rows
                       for j in range(max(2, size - need + 1), size + 1))
            assert math.isclose(read_bound(size, need, rows, b), want,
                                rel_tol=1e-9), (size, need, rows, b)


# (capacity, need, target) -> (R, B), recorded while a whole peel and a
# short read had bounds of their own:
# dpsa's whole peel at n=600, k=3, the pdpsa level grids at (600, 2),
# (10^4, 2) and (10^4, 8), and grids from 1 to 1 800 indices
_RECORDED_GRIDS = [
    (1800, None, 0.005 / (600 * 599 // 2), (5, 644)),
    (40, 5, 0.01 / 1200, (6, 19)), (45, 5, 0.01 / 20000, (6, 22)),
    (73, 17, 0.01 / 20000, (6, 33)), (40, 3, 0.01 / 1200, (5, 19)),
    (65, 9, 0.01 / 1200, (5, 29)), (67, 17, 0.01 / 1200, (6, 29)),
    (44, 5, 5e-09, (8, 20)), (1, None, 0.01, (1, 1)),
    (2, None, 0.01, (7, 2)), (5, None, 1e-06, (15, 3)),
    (10, None, 0.01, (5, 6)), (20, None, 0.01 / 2000, (7, 13)),
    (50, None, 1e-06, (7, 23)), (254, None, 0.01, (4, 109)),
    (400, None, 0.01, (3, 216)), (1800, None, 0.3, (3, 918)),
    (12, 3, 0.01, (4, 7)), (5, 1, 0.1, (2, 4)), (3, 1, 0.15, (2, 3)),
    (18, 3, 0.0005, (4, 14)), (31, 7, 0.01 / 28, (5, 17)),
    (100, 1, 1e-12, (8, 35))]


@pytest.mark.parametrize("capacity, need, target, grid", _RECORDED_GRIDS)
def test_grid_geometry_keeps_the_recorded_grids(capacity, need, target,
                                                grid):
    assert grid_geometry(capacity, target, MAX_WORDS // 2, need) == grid


def test_a_read_past_need_falls_short_within_its_bound(monkeypatch):
    """Partial peels on a deliberately small grid: 3 rows of 6 buckets,
    need 3, one level, so every read past 3 indices is a partial read of
    level 0.  Each trial writes 12 seeded indices one at a time and reads
    in part at every size s from 4; the rate of reads that return fewer
    than 3 indices must stay within ``read_bound`` (s, 3, 3, 6)
    plus 3 binomial standard deviations.  The bound passes 1e-2 at s = 4
    (2.8e-2, nearly all of it the pairs of 4 that share a bucket in all 3
    rows, so it is close to exact there) and at s = 10..12.  The seeded
    rates run from 0 to 0.032; at s = 5 (0.003 against 0.0023) and s = 9
    (0.010 against 0.0070) they pass the bound by about one standard
    deviation, and 20 000 trials at s = 4 and 5 read 0.0292 and 0.00235
    against 0.0283 and 0.0023.  A read that does not fall short names
    indices of the support only.
    """
    rows, buckets, need, top, trials = 3, 6, 3, 12, 1000
    monkeypatch.setattr(sketch, "level_geometry",
                        lambda *args: (top, 1, rows, buckets))
    rng = random.Random(5)
    short = [0] * (top + 1)
    for t in range(trials):
        s = SampleRecovery(1000, need, seed=derive_seed("short-read", t),
                           fail=0.01, sampled=True)
        support = rng.sample(range(1, 1001), top)
        for size, i in enumerate(support, 1):
            s.update(i, +1)
            if size <= need:
                continue
            try:
                got = s._fresh_read()[1]
            except RecoveryFail:
                short[size] += 1
                continue
            assert len(got) >= need and got <= set(support[:size])
    assert read_bound(need + 1, need, rows, buckets) >= 1e-2
    for size in range(need + 1, top + 1):
        bound = read_bound(size, need, rows, buckets)
        spread = 3 * math.sqrt(bound * (1 - bound) / trials)
        assert short[size] / trials <= bound + spread, size


def _exact_pair_buckets(pairs, target, rows):
    """Least B >= 2 with pairs / B^R <= target in exact rationals, by
    doubling B from 2 and bisecting the last doubling."""
    def fits(b):
        return Fraction(pairs, b ** rows) <= Fraction(target)
    bad, good = 1, 2
    while not fits(good):
        bad, good = good, 2 * good
    while good - bad > 1:
        mid = (good + bad) // 2
        bad, good = (bad, mid) if fits(mid) else (mid, good)
    return good


def test_pair_buckets_are_the_exact_least():
    cases = [(pairs, pairs / 10 ** e)
             for e in range(2, 28) for pairs in (1, 45, 1_619_100)]
    # ratios whose roots are whole powers of two, where a start rounded
    # up from the float root would pass the least B
    cases += [(1 << e, 2.0 ** -e) for e in range(1, 90, 7)]
    # ``300000 13 dpsa``'s grid: 3.9e6 edge slots over N = 4.5e10, a
    # ratio of 6.8e25; at one row, a search stepping down by one bucket
    # from the float root took 914 761 257 steps
    n = 300000 * 299999 // 2
    cases.append((math.comb(300000 * 13, 2), 0.005 / n))
    # a ratio past the largest float, whose root overflowed at one row
    cases.append((45, 1e-320))
    for pairs, target in cases:
        for rows in range(1, MAX_ROWS + 1):
            assert _pair_buckets(pairs, target, rows) \
                == _exact_pair_buckets(pairs, target, rows), \
                (pairs, target, rows)


def test_a_capacity_past_the_cells_is_refused_before_any_bound(monkeypatch):
    def sized(*args):
        raise AssertionError("a refused grid was sized")
    monkeypatch.setattr(sketch, "_read_terms", sized)
    # a peel empties a distinct cell for each index
    assert grid_geometry(101, 1e-6, 100) is None
    assert grid_geometry(10 ** 9, 1e-6, MAX_WORDS // 2) is None


def test_a_target_past_the_float_range_is_refused_by_the_budget():
    # C(1 800, 2) / fail passes the largest float, and the pair term
    # alone asks for 10^(312/R) buckets a row
    with pytest.raises(ValueError, match="past the budget"):
        SampleRecovery(600 * 599 // 2, 1800, seed=0, fail=1e-306)


def test_a_sketch_past_the_word_budget_is_refused_before_sizing(monkeypatch):
    def sized(*args):
        raise AssertionError("a refused sketch was sized")
    monkeypatch.setattr(sketch, "_read_terms", sized)
    # dpsa's sketch at n = 77 936, k = 1000: 7.8e7 edge slots over 3.0e9
    # indices, at least one cell a slot
    n, capacity = 77936 * 77935 // 2, 77936 * 1000
    with pytest.raises(ValueError, match=rf"needs more than {MAX_WORDS // 2} "
                       rf"cells a level, 1 level\(s\) at 2 words a cell, "
                       rf"past the budget of {MAX_WORDS} words"):
        SampleRecovery(n, capacity, seed=0, fail=0.005 / n)


def test_a_sized_grid_past_the_word_budget_is_refused(monkeypatch):
    # dpsa's sketch at n=600, k=3: its capacity fits a budget that its
    # sized 5 x 644 grid passes, and it is refused before any cell
    n, capacity = 600 * 599 // 2, 1800
    fail = 0.005 / n
    rows, buckets = grid_geometry(capacity, fail, MAX_WORDS // 2)
    sized = 2 * rows * buckets
    assert capacity <= (sized - 1) // 2
    monkeypatch.setattr(sketch, "MAX_WORDS", sized - 1)
    with pytest.raises(ValueError, match=rf"needs more than {sized // 2 - 1} "
                       rf"cells a level, 1 level\(s\) at 2 words a cell, "
                       rf"past the budget of {sized - 1} words"):
        SampleRecovery(n, capacity, seed=0, fail=fail)
    monkeypatch.setattr(sketch, "MAX_WORDS", sized)
    assert SampleRecovery(n, capacity, seed=0, fail=fail).cells.size == sized


def _no_singleton_by_enumeration(s, b):
    """Q_s(B) over all B^s assignments of s indices to B buckets."""
    hit = sum(all(a.count(x) != 1 for x in range(b))
              for a in product(range(b), repeat=s))
    return hit / b ** s


@pytest.mark.parametrize("s", range(2, 7))
@pytest.mark.parametrize("b", range(1, 6))
def test_no_singleton_chance_matches_enumeration(s, b):
    want = _no_singleton_by_enumeration(s, b)
    exact = math.exp(sketch._exact_no_singleton(b)[s - 2])
    assert math.isclose(exact, want, rel_tol=1e-12)
    saddle = math.exp(sketch._saddle_no_singleton(
        np.array([s]), np.array([math.lgamma(s + 1)]), b)[0])
    assert saddle >= want


def _progression(rng, n, size):
    d = rng.randint(1, (n - 1) // (size - 1))
    x = rng.randint(1, n - (size - 1) * d)
    return [x + i * d for i in range(size)]


def _parallelograms(rng, n, size):
    """A side x side lattice x + i d1 + j d2: every four points
    {y, y + d1, y + d2, y + d1 + d2} of it form a parallelogram."""
    side = math.isqrt(size)
    while True:
        d1, d2 = (rng.randint(1, n // (4 * side)) for _ in range(2))
        x = rng.randint(1, n - side * (d1 + d2))
        got = {x + i * d1 + j * d2 for i in range(side) for j in range(side)}
        if len(got) == size:
            return sorted(got)


def test_structured_supports_stall_within_the_bound():
    """Full-capacity peels of additively structured supports on a 3-row
    grid: arithmetic progressions and lattices of parallelograms.

    A linear bucket hash (a i + b) mod p mod B keeps their additive
    structure: once a difference maps to a multiple of B in a row, every
    pair at that difference shares a bucket there, and three such
    differences span a cube of 8 indices that stalls every row.  On this
    grid it stalled 58 of these 200 peels (29%), against a bound of
    0.9%; splitmix64 stalled 2.  The stall count must stay within the
    first-moment bound plus 3 binomial standard deviations (5.8 here).
    """
    n, capacity, trials = 10 ** 6, 400, 200
    rng = random.Random(7)
    stalls = 0
    for t in range(trials):
        build = _progression if t % 2 == 0 else _parallelograms
        support = build(rng, n, capacity)
        s = SampleRecovery(n, capacity, fail=0.01,
                           seed=derive_seed("structured", t))
        assert s.rows == 3
        for i in support:
            s.update(i, +1)
        try:
            stalls += s.recover() != set(support)
        except RecoveryFail:
            stalls += 1
    bound = read_bound(capacity, capacity, s.rows, s.buckets)
    mean = trials * bound
    assert stalls <= mean + 3 * math.sqrt(mean * (1 - bound))


# capacity -> trials
_CURVE = {1: 800, 2: 800, 5: 800, 10: 500, 50: 300, 254: 100, 1800: 20}


@pytest.mark.parametrize("capacity", sorted(_CURVE))
def test_recovery_failure_curve_at_full_capacity(capacity):
    # seeded, so every run draws the same supports and hashes
    trials, n = _CURVE[capacity], 10 ** 5
    rng = random.Random(capacity)
    failures = 0
    for t in range(trials):
        s = SampleRecovery(n, capacity,
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
    # a sketch without levels; a sampled one's level count falls as its
    # level capacity grows
    small = SampleRecovery(1000, capacity=4, seed=1)
    big = SampleRecovery(1000, capacity=32, seed=1)
    assert 0 < small.words() < big.words()
    # no capacity takes fewer cells than a smaller one; words() adds a
    # key per row, and a grid one cell larger can have fewer rows
    cells = [SampleRecovery(64, capacity=c, seed=1).cells.size
             for c in range(1, 65)]
    assert cells == sorted(cells)
    # a sampled sketch takes the fewest words of its two level capacities,
    # and no capacity takes fewer than a smaller one
    words = [SampleRecovery(600, capacity=c, seed=1, sampled=True).words()
             for c in range(1, 65)]
    assert words == sorted(words)


@pytest.mark.parametrize("n, k, most", [
    # 1 684, 3 191 and 3 800 words with grids sized to peel all of the
    # least level capacity
    (600, 2, 1384), (10 ** 4, 2, 2660), (10 ** 4, 8, 3583)])
def test_vertex_sketch_words_at_three_sizes(n, k, most):
    s = SampleRecovery(n, 2 * k + 1, seed=1, fail=0.01 / (2 * n),
                       sampled=True)
    assert s.words() <= most


def test_a_level_grid_is_sized_for_at_most_n_indices():
    # no 0/1 vector over N indices has more than N of them, so a level
    # capacity past N sizes its grid for N: at N = 10, need 3 (pdpsa at
    # n=10, k=1) C = 18, one 7 x 5 grid, 80 words, where sizing for 18
    # indices took one 4 x 14 grid, 119 words
    s = SampleRecovery(10, 3, seed=1, fail=0.01 / 20, sampled=True)
    assert (s.level_capacity, s.levels, s.rows, s.buckets) == (18, 1, 7, 5)
    assert (s.rows, s.buckets) == grid_geometry(10, 0.01 / 20,
                                                MAX_WORDS // 2, 3)
    assert s.words() == 80
    # within N the level capacity sizes the grid
    s = SampleRecovery(600, 5, seed=1, fail=0.01 / 1200, sampled=True)
    assert (s.rows, s.buckets) == grid_geometry(s.level_capacity,
                                                0.01 / 1200,
                                                MAX_WORDS // (2 * s.levels),
                                                5)


def test_dpsa_keeps_its_whole_peel_grid():
    # not sampled, so sized to peel all of its n*k edge slots
    n_pairs = 600 * 599 // 2
    s = SampleRecovery(n_pairs, 1800, seed=1, fail=0.005 / n_pairs)
    assert (s.level_capacity, s.levels, s.rows, s.buckets) == (1800, 1, 5,
                                                                644)
    assert DpsaState(Config(n=600, k=3)).words() == 6450


# -- level grids ------------------------------------------------------------


def _reference_depth(s, i):
    """Leading zero bits of splitmix64 of the index plus the depth key,
    capped."""
    bits = format(_splitmix64(i + s.depth_key), "064b")
    return min(s.levels - 1, len(bits) - len(bits.lstrip("0")))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_depths_of_consecutive_indices_are_binomial(seed):
    # over 2^20 consecutive indices, the count at each depth l <= 9 lies
    # within 4.5 standard deviations of Bin(N, 2^-(l+1)); the depth hash
    # runs here in wrapping uint64, the top 10 bits of each hash giving
    # its leading zeros up to 10
    n = 1 << 20
    s = SampleRecovery(n, capacity=5, seed=seed, sampled=True)
    assert s.levels > 10
    z = np.arange(1, n + 1, dtype=np.uint64)
    z += np.uint64((s.depth_key + _GAMMA) % 2 ** 64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    top = (z >> np.uint64(54)).astype(np.int64)
    depths = 10 - np.searchsorted(1 << np.arange(10), top, side="right")
    # pinned to the sketch's own depth hash on a spread of indices
    for i in range(1, n + 1, 997):
        assert min(s._depth(i), 10) == depths[i - 1] \
            == min(_reference_depth(s, i), 10)
    counts = np.bincount(depths, minlength=11)
    for lvl in range(10):
        p = 2.0 ** -(lvl + 1)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(counts[lvl] - n * p) <= 4.5 * sigma, (lvl, counts[lvl])


def _reference_levels(s, ops):
    """All-levels cells, built straight from the hashes.

    Level l sums every update whose index has depth >= l: the subsample
    grids that the suffix sums of the level grids must rebuild.
    """
    ref = np.zeros((3, s.levels, s.rows, s.buckets), dtype=object)
    for i, d in ops:
        for r in range(s.rows):
            col = _bucket(s, r, i)
            for lvl in range(_reference_depth(s, i) + 1):
                at = (lvl, r, col)
                ref[(0,) + at] += d
                ref[(1,) + at] += d * i
                ref[(2,) + at] = (ref[(2,) + at] + _fingerprint(s, i, d)) \
                    % PRIME
    return ref


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(1, 300), st.sampled_from([1, -1])),
                min_size=1, max_size=40),
       st.integers(1, 4), st.integers(0, 2 ** 32))
def test_level_grids_match_all_levels_reference(ops, capacity, seed):
    s = SampleRecovery(n_indices=300, capacity=capacity, seed=seed,
                       fail=1e-6, sampled=True)
    for i, d in ops:
        s.update(i, d)
    ref = _reference_levels(s, ops)
    got = np.cumsum(_fields(s)[:, ::-1], axis=1)[:, ::-1]
    got[2] %= PRIME
    assert np.array_equal(got, ref.astype(np.int64))
    depths = [0] * s.levels
    for i, d in ops:
        depths[_reference_depth(s, i)] += d
    assert s.level_support == depths
    # the level read is the shallowest whose subsample fits the capacity
    suffix = list(accumulate(reversed(depths)))[::-1]
    fits = [lvl for lvl in range(s.levels)
            if suffix[lvl] <= s.level_capacity]
    lvl = fits[0] if fits else s.levels - 1
    assert s._fit_level() == lvl
    assert np.array_equal(s._decode(s._level_sum(lvl)), got[:, lvl])

    net: dict[int, int] = {}
    for i, d in ops:
        net[i] = net.get(i, 0) + d
    support = {i for i, c in net.items() if c}
    if s.support > s.capacity:
        try:
            assert s.recover() <= support
        except RecoveryFail:
            pass
    for which in range(3):
        got = s.sample(which)
        if not s.support:
            assert got.kind == EMPTY
        elif got.kind == INDEX:
            assert got.index in support


def _shortfall_bound(need, capacity, n):
    """``SampleRecovery.recover``'s bound on P[shortfall] for fully random
    levels: sum over s in (capacity, n] of P[Bin(s, 1/2) < need] /
    (1 - 2^-s)."""
    return sum(sum(math.comb(s, j) for j in range(need)) / 2 ** s
               / (1 - 2.0 ** -s) for s in range(capacity + 1, n + 1))


@pytest.mark.parametrize("k", [1, 2, 4])
def test_level_recovery_failure_curve(k):
    """``recover()`` of a sampled sketch of capacity 2k+1 on supports
    from 2k+2 up to N.

    A pdpsa vertex sketch at n=600: N = 600 indices, fail = delta / 2n.
    Each trial must return at least ``need`` = 2k+1 indices, all in the
    support; stalls and shortfalls together stay <= 0.01 at every
    support size, criterion 9's bound.  Up to the level capacity C the
    counters pick level 0, read in part (``read_bound`` <= fail at
    every size); past it a level read.  With fully random levels the
    rate is at most ``_shortfall_bound`` (a shortfall) plus fail (a
    level read that falls short): 8.3e-6 for k=1 (C=40), 8.4e-6 for k=2
    (C=40) and 8.3e-6 for k=4 (C=65).  At 100 trials a point, the 0.01
    bound allows one failure.
    """
    n, fail, trials = 600, 0.01 / 1200, 100
    need = 2 * k + 1
    rng = random.Random(k)
    capacity = SampleRecovery(n, need, fail=fail, sampled=True,
                              seed=0).level_capacity
    assert capacity >= level_capacity(need, fail)
    assert _shortfall_bound(need, capacity, n) + fail <= 1e-4
    for size in (need + 1, capacity, capacity + 1, 2 * capacity,
                 4 * capacity, n):
        failures = 0
        for t in range(trials):
            # seeded, so every run draws the same supports and hashes;
            # every support here is past capacity, so every read is a
            # partial one
            s = SampleRecovery(n, need, fail=fail, sampled=True,
                               seed=derive_seed("level-curve", k, size, t))
            support = set(rng.sample(range(1, n + 1), size))
            for i in support:
                s.update(i, +1)
            try:
                got = s.recover()
                failures += len(got) < need or not got <= support
            except RecoveryFail:
                failures += 1
            assert (s._held is None or s._held[0] == 0) == (size <= capacity)
        assert failures / trials <= 0.01, (size, failures)


def test_level_capacity_is_the_smallest_that_meets_the_binomial_tail():
    for need in (1, 3, 5, 9, 17):
        for fail in (0.01, 8.3e-6, 1e-9):
            c = level_capacity(need, fail)

            def tail(m):
                return sum(math.comb(m, j) for j in range(need)) / 2 ** m
            assert tail(c + 1) <= fail
            assert c == 1 or tail(c) > fail
    assert level_capacity(5, 0.01 / 1200) == 32


def _stepped_level_capacity(need, fail):
    """The search ``level_capacity`` replaced: C up by one from need - 1."""
    c = max(1, need - 1)
    while sum(math.comb(c + 1, j) for j in range(need)) / 2 ** (c + 1) \
            > fail:
        c += 1
    return c


def test_level_capacity_bisects_to_the_stepped_search():
    for fail in (0.5, 0.01, 8.3e-6, 0.01 / 1200, 1e-9, 1e-15):
        for need in range(1, 41):
            assert level_capacity(need, fail) \
                == _stepped_level_capacity(need, fail), (need, fail)


def test_recover_reads_the_levels_only_past_capacity():
    s = SampleRecovery(600, capacity=10, seed=3, fail=1e-6, sampled=True)
    for i in range(1, 11):
        s.update(i, +1)
    assert s.recover() == set(range(1, 11))  # the exact recovery grid
    assert s._held[0] == 0
    for i in range(11, 301):
        s.update(i, +1)
    got = s.recover()
    # as many as the capacity, from one level's subsample
    assert len(got) >= 10 and got <= set(range(1, 301))
    assert s._held[0] >= 1
    no_levels = SampleRecovery(600, capacity=2, seed=3)
    for i in (1, 2, 3):
        no_levels.update(i, +1)
    assert no_levels.sample(0).kind == FAIL


def test_reads_are_whole_up_to_capacity_and_partial_past_it():
    # within capacity: a whole peel of the support, checked against
    # ``support``
    for size in (1, 5, 10):
        s = SampleRecovery(600, capacity=10, seed=size, fail=1e-6,
                           sampled=True)
        for i in range(1, size + 1):
            s.update(i, +1)
        assert s.recover() == set(range(1, size + 1)) and s._held[0] == 0
    s = SampleRecovery(600, capacity=10, seed=3, fail=1e-6, sampled=True)
    for i in range(1, 10):
        s.update(i, +1)
    s.support += 1
    with pytest.raises(RecoveryFail, match="peeled weight 9, counters 10"):
        s.recover()
    # past capacity but within the level capacity, the counters pick
    # level 0, and the read names at least ``capacity`` indices of the
    # support, not all of them
    for size in (11, 20, level_capacity(10, 1e-6)):
        s = SampleRecovery(600, capacity=10, seed=size, fail=1e-6,
                           sampled=True)
        for i in range(1, size + 1):
            s.update(i, +1)
        assert s.capacity < s.support <= s.level_capacity
        got = s.recover()
        assert s._held[0] == 0 and got <= set(range(1, size + 1))
        assert len(got) >= s.capacity


def test_draws_past_capacity_pick_from_one_level_read(monkeypatch):
    s = SampleRecovery(600, capacity=10, seed=3, fail=1e-6, sampled=True)
    for i in range(1, 301):
        s.update(i, +1)
    real, reads = SampleRecovery._fresh_read, []

    def counted(self):
        reads.append(self)
        return real(self)
    monkeypatch.setattr(SampleRecovery, "_fresh_read", counted)
    draws = [s.sample(which) for which in range(50)]
    read = s.recover()
    # the first draw reads a level and holds it; the rest and recover()
    # return the held read
    assert len(reads) == 1 and s._held[0] >= 1
    assert all(d.is_index and d.index in read for d in draws)
    assert len({d.index for d in draws}) > 1


def test_a_kept_read_counts_in_words_until_the_support_fits():
    # a kept read costs its level and a word per index.  A write at a
    # shallow depth keeps it, until a large negative weight there brings
    # the support within capacity: the counters from the level above down
    # are as they were, but a fresh read is now a whole peel
    s = SampleRecovery(600, capacity=10, seed=3, fail=1e-6, sampled=True)
    for i in range(1, 301):
        s.update(i, +1)
    bare = s.words()
    got = s.recover()
    level = s._held[0]
    assert level >= 2 and s.words() == bare + 1 + len(got)
    shallow = [i for i in range(301, 601) if s._depth(i) < level - 1]
    s.update(shallow[0], +1)
    assert s._held == (level, got)
    s.update(shallow[1], -(s.support - s.capacity))
    assert s.support == s.capacity
    assert s._held is None and s.words() == bare


def test_large_weight_update_round_trips():
    # delta * (i + r)^-1 passes 2^63 unless reduced first; the update
    # used to raise after changing the counters
    s = SampleRecovery(179700, 25, seed=0)
    fresh_state = SampleRecovery(179700, 25, seed=0)
    limit = s._weight_limit
    for i in (1, 179700):
        s.update(i, -limit)
        assert s.recover() == {i}
        s.update(i, limit)
        assert s.state_equals(fresh_state)
    # a weight past the limit is refused before any field changes
    for d in (limit + 1, -(1 << 31), 1 << 62):
        with pytest.raises(ValueError, match="past the limit"):
            s.update(179700, d)
        assert s.state_equals(fresh_state)


# -- the two-word cell -------------------------------------------------------


# N -> its weight limit: a pdpsa vertex sketch at n=600, dpsa's edge
# slots at n=600 and n = 2 049, and the most indices a sketch takes
_WEIGHT_LIMITS = {600: 67_108_863, 179700: 4_194_303,
                  2049 * 2048 // 2: 1_048_575, MAX_INDICES: 64}


@pytest.mark.parametrize("n", [1, 6, 300, 600, 179700, 1999000,
                               2048 * 2047 // 2, 2049 * 2048 // 2, 10 ** 12,
                               MAX_INDICES])
def test_packed_words_decode_exactly_at_the_corners_of_the_range(n):
    # every one-sparse cell c e_i within the weight limit, at both ends of
    # the index range, decodes exactly and passes the one-sparse check
    shift, limit = _packing(n)
    assert limit == _WEIGHT_LIMITS.get(n, limit)
    assert limit == min((1 << (63 - shift)) - 1,
                        ((1 << (shift - 1)) - 1) // n)
    s = SampleRecovery(n, capacity=1, seed=0)
    assert s._shift == shift and len(s.cells) == 2
    corners = [(c, i) for c in (-limit, -1, 1, limit) for i in (1, n)]
    stored = np.array([_stored(s, c, c * i, _fingerprint(s, i, c))
                       for c, i in corners], dtype=np.int64).T
    got = s._decode(stored)
    assert got[:2].tolist() == [[c for c, _ in corners],
                                [c * i for c, i in corners]]
    got_i, got_c, _ = s._verify_cells(*got)
    assert list(zip(got_i.tolist(), got_c.tolist())) == [
        (i, c) for c, i in corners]


@pytest.mark.parametrize("n", [2049 * 2048 // 2, MAX_INDICES])
def test_a_sketch_takes_two_words_a_cell_at_every_size(n):
    # dpsa's edge slots at n = 2 049 used to take three words a cell
    for sampled in (False, True):
        s = SampleRecovery(n, capacity=3, seed=0, sampled=sampled)
        assert s.cells.shape == (2, s.levels * s.rows * s.buckets)


def test_level_sums_past_the_range_fail_and_recover_once_deleted():
    # 500 indices near N = P/2 over a grid for 8: their index sums pass
    # the packed range, so the read fails; deleting all but 8 leaves
    # cells that decode exactly, as the stored words are exact mod 2^64
    n = MAX_INDICES
    s = SampleRecovery(n, capacity=8, seed=3)
    rng = random.Random(3)
    ids = rng.sample(range(n - 10 ** 6, n + 1), 500)
    for i in ids:
        s.update(i, +1)
    _, index, _ = s._decode(s._level_sum(0))
    # some cell's index sum passes the range and decodes to another
    exact = np.zeros((2, s.rows, s.buckets), dtype=object)
    for i in ids:
        for r in range(s.rows):
            exact[:, r, _bucket(s, r, i)] += (1, i)
    assert any(int(x) != int(y) for x, y in zip(index.ravel(),
                                                exact[1].ravel()))
    with pytest.raises(RecoveryFail):
        s.recover()
    for i in ids[8:]:
        s.update(i, -1)
    assert s.recover() == set(ids[:8])


def test_a_weight_summed_past_the_limit_fails_the_read():
    # each write is within the limit, but their sum at index N is not:
    # its cells decode to candidates that the fingerprint refuses, so the
    # whole peel stalls, and so does each level read of a sampled sketch
    n = 179700
    for sampled in (False, True):
        s = SampleRecovery(n, capacity=8, seed=6, sampled=sampled)
        limit = s._weight_limit
        for i in (3, 50, 4000):
            s.update(i, +1)
        s.update(n, limit)
        s.update(n, limit)
        with pytest.raises(RecoveryFail):
            s.recover()
        s.update(n, -limit)
        if not sampled:
            # back within the limit: the whole peel reads it again
            assert s.recover() == {3, 50, 4000, n}
        s.update(n, -limit)
        assert s.recover() == {3, 50, 4000}


@pytest.mark.parametrize("n", [600, 10 ** 5, 1 << 23, 1 << 26, MAX_INDICES])
def test_vectorised_check_agrees_with_scalar_on_large_counts(n):
    s = SampleRecovery(n_indices=n, capacity=8, seed=4)
    top = ((1 << 63) - 1) // s.n  # the index sum count * i stays in int64
    rng = random.Random(8)
    rows, cols = s.rows, s.buckets
    count = np.zeros((rows, cols), dtype=np.int64)
    index = np.zeros_like(count)
    fp = np.zeros_like(count)
    # counts that are 0, 1 and -1 mod P, where the index sum allows them
    magnitudes = [m for m in (1, 3, PRIME - 1, PRIME, PRIME + 1, 2 * PRIME,
                              top // 3, top) if m <= top]
    for r in range(rows):
        for col in range(cols):
            c = rng.choice(magnitudes) * rng.choice([1, -1])
            # i + r reaches P - 1 at i = N
            i = rng.choice([1, s.n, rng.randint(1, s.n)])
            count[r, col] = c
            index[r, col] = c * i
            fp[r, col] = _fingerprint(s, i, c)
            spoil = rng.random()
            if spoil < 0.2:  # not one-sparse by fingerprint
                fp[r, col] = (fp[r, col] + 1) % PRIME
            elif spoil < 0.3:  # index sum not a multiple of the count
                index[r, col] += 1
    got_i, got_c, _ = s._verify_cells(count, index, fp)
    want = [(_verified(s, int(c), int(ix), int(f)), int(c))
            for c, ix, f in zip(count.ravel(), index.ravel(), fp.ravel())]
    want = [(i, c) for i, c in want if i is not None]
    assert list(zip(got_i.tolist(), got_c.tolist())) == want
    assert len(want) >= count.size // 2
    assert any(abs(c) >= PRIME for _, c in want) == (top >= PRIME)


def test_recover_with_weights_past_the_int64_product_bound():
    s = SampleRecovery(n_indices=60, capacity=2, seed=12, sampled=True)
    big = s._weight_limit  # the most a one-sparse cell decodes exactly
    # two indices at depth 0
    a, b = [i for i in range(1, 61) if s._depth(i) == 0][:2]
    s.update(a, big)
    s.update(b, 3)
    assert big * PRIME >= 1 << 63
    # the whole peel
    assert s._peel(s._level_sum(0), s.support) == {a, b}
    # the level counters sum weights, so the level they pick holds
    # neither index here; the reads move on to shallower levels
    assert s._fit_level() > max(map(s._depth, (a, b)))
    assert s.recover() == {a, b} and s._held[0] == 0
    for which in range(8):
        assert s.sample(which).index in (a, b)


def test_crafted_two_index_cells_fail_the_fingerprint():
    # w e_(i-d) + w e_(i+d) and e_(i-2d) + 2 e_(i+d) have a count that
    # divides their index sum into i, so only the fingerprint can refuse
    # them; with a rational fingerprint each passes with probability at
    # most 2 / (P - N)
    s = SampleRecovery(n_indices=10 ** 6, capacity=50, seed=5)
    rng = random.Random(5)
    cells, genuine = [], []
    for t in range(5000):
        i = rng.randint(3, s.n - 2)
        d = rng.randint(1, min((i - 1) // 2, s.n - i))
        w = rng.choice([1, 2, 7, -3])
        if t % 2:
            held = {i - d: w, i + d: w}
        else:
            held = {i - 2 * d: w, i + d: 2 * w}
        c = sum(held.values())
        ix = sum(j * x for j, x in held.items())
        assert ix == c * i and 1 <= ix // c <= s.n
        cells.append((c, ix, sum(_fingerprint(s, j, x)
                                 for j, x in held.items()) % PRIME))
        genuine.append((c, ix, _fingerprint(s, i, c)))
    count, index, fp = (np.array(f, dtype=np.int64) for f in zip(*cells))
    assert not len(s._verify_cells(count, index, fp)[0])
    count, index, fp = (np.array(f, dtype=np.int64) for f in zip(*genuine))
    assert len(s._verify_cells(count, index, fp)[0]) == len(genuine)


def test_mulmod_exact_at_the_edges_of_each_path():
    # one path, the float quotient, for every modulus below 2^50: from
    # 2^30, past the old int64 path's top (p^2 < 2^63), up to P
    plain_top = math.isqrt((1 << 63) - 1)
    rng = random.Random(3)
    for p in (1 << 30, plain_top, plain_top + 2, PRIME):
        a = [p - 1, p - 1, 0, 1, p - 2]
        b = [p - 1, 1, p - 1, p - 1, p - 2]
        a += [rng.randrange(p) for _ in range(200)]
        b += [rng.randrange(p) for _ in range(200)]
        got = _mulmod_exact(np.array(a, dtype=np.int64),
                            np.array(b, dtype=np.int64), p)
        assert got.tolist() == [x * y % p for x, y in zip(a, b)]


@pytest.mark.parametrize("bits", [31.5, 35, 46, 50])
def test_mulmod_float_quotient_is_exact(bits):
    # odd moduli near 2^bits, and P itself, the largest the sketch uses;
    # every pair of {0, 1, p - 1}, then random draws
    p = int(2 ** bits) | 1 if bits < 50 else PRIME
    assert p < 1 << 50
    rng = random.Random(p)
    ends = [0, 1, p - 1]
    a = [x for x in ends for _ in ends] + [rng.randrange(p)
                                          for _ in range(20000)]
    b = ends * len(ends) + [rng.randrange(p) for _ in range(20000)]
    got = _mulmod_exact(np.array(a, dtype=np.int64),
                        np.array(b, dtype=np.int64), p)
    assert got.tolist() == [x * y % p for x, y in zip(a, b)]


# (n_indices, sampled) of a pdpsa vertex sketch at n=600, and of the
# dpsa edge sketch at n=600, n=2000 and n=2049
@pytest.mark.parametrize("n,sampled", [(600, True), (600 * 599 // 2, False),
                                       (2000 * 1999 // 2, False),
                                       (2049 * 2048 // 2, False)])
def test_sketch_matches_python_int_reference(n, sampled):
    rng = random.Random(n)
    for seed in range(3):
        s = SampleRecovery(n, capacity=30, seed=seed, sampled=sampled)
        ops = [(i, rng.choice([1, 2, -1]))
               for i in rng.sample(range(1, n), 29) + [n]]
        for i, d in ops:
            s.update(i, d)
        got = np.cumsum(_fields(s)[:, ::-1], axis=1)[:, ::-1]
        got[2] %= PRIME
        assert np.array_equal(got, _reference_levels(s, ops).astype(np.int64))
        support = {i for i, _ in ops}
        # the whole support, or past capacity a level read of at least
        # 30 of these 30 indices
        assert s.recover() == support
        # the support counter sums weights, so it may pass the capacity,
        # where a sketch without levels has nothing to draw from
        for which in range(3):
            got = s.sample(which)
            assert (got.index in support if got.is_index
                    else s.support > s.capacity and not sampled)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(m):
    """Miller-Rabin to the prime bases 2..37, exact below 3.3e24."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def test_the_fingerprint_prime_is_the_largest_below_2_50():
    # the test against a sieve, and against strong pseudoprimes to the
    # bases 2..7 and 2..23
    sieve = [True] * 10_000
    sieve[:2] = [False, False]
    for p in range(2, 100):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(sieve[p * p::p])
    assert [_is_prime(m) for m in range(10_000)] == sieve
    assert not _is_prime(3_215_031_751)
    assert not _is_prime(3_825_123_056_546_413_051)
    assert _is_prime(PRIME)
    assert not any(_is_prime(m) for m in range(PRIME + 1, 1 << 50))
    # the headroom the level sums and peel blocks rely on
    assert 8192 * PRIME < 1 << 63 < 8193 * PRIME
    assert MAX_INDICES == PRIME // 2


def test_too_many_indices_are_refused_before_any_sizing(monkeypatch):
    def sized(*args):
        raise AssertionError("a refused sketch was sized")
    for name in ("level_geometry", "level_capacity", "level_count",
                 "grid_geometry"):
        monkeypatch.setattr(sketch, name, sized)
    with pytest.raises(ValueError, match=f"limit of {MAX_INDICES}"):
        SampleRecovery(MAX_INDICES + 1, capacity=10 ** 9, seed=0,
                       sampled=True)


def test_fail_target_lies_in_0_to_one_half():
    # level_capacity(C, fail) >= C needs fail < 1/2
    for fail in (0, -0.1, 0.5, 1.0):
        with pytest.raises(ValueError, match="fail"):
            SampleRecovery(n_indices=100, capacity=3, seed=0, fail=fail,
                           sampled=True)
    s = SampleRecovery(n_indices=100, capacity=3, seed=0, fail=0.49,
                       sampled=True)
    assert s.level_capacity >= s.capacity


def test_index_count_must_not_be_negative():
    with pytest.raises(ValueError, match="n_indices"):
        SampleRecovery(n_indices=-1, capacity=1, seed=0)


def test_default_failure_share_is_per_index():
    # delta / 2N for N indices, as pdpsa gives its level grids; N = 0 (dpsa
    # at n = 1) has no share to divide
    s = SampleRecovery(n_indices=1000, capacity=20, seed=0)
    assert read_bound(20, 20, s.rows, s.buckets) <= 0.01 / 2000
    empty = SampleRecovery(n_indices=0, capacity=1, seed=0)
    assert empty.recover() == set()
    assert read_bound(1, 1, empty.rows, empty.buckets) == 0
