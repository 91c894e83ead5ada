"""Every promised stream on four and five vertices, up to five updates;
every valid write sequence on a six-index sketch, up to five writes."""

import pytest

from exhaustive import walk
from exhaustive_sketch import walk_sketch


# (n, k, length) -> (prefixes, the empty one included; prefixes with a
# pdpsa sketch past its capacity x = min(2k+1, n-1))
@pytest.mark.parametrize("n, k, length, prefixes, level_reads", [
    (4, 2, 5, 9_331, 0),
    # a degree-4 vertex passes x = 3, so pdpsa's level read runs
    (5, 1, 5, 11_841, 120),
])
def test_every_small_promised_stream(n, k, length, prefixes, level_reads):
    got = walk(n, k, length)
    assert got.failures == []
    assert (got.prefixes, got.level_reads) == (prefixes, level_reads)


# fail -> the sketch's levels.  At capacity 1, fail 0.3 gives 4 levels of
# 1 x 1 grids; fail 0.1 gives level capacity 5 and 2 levels of 2 x 4
# grids, and fail 0.15 level capacity 3 and 3 levels of 2 x 3 grids,
# which can stall and read several indices a level
_LEVELS = {0.3: 4, 0.1: 2, 0.15: 3}


# (seed, fail) -> (the prefixes that a kept level read served, those read
# in part at level 0)
_KEPT = {(0, 0.3): (2_976, 0), (1, 0.3): (2_448, 0),
         (0, 0.1): (0, 6_730), (1, 0.1): (0, 6_812),
         (0, 0.15): (240, 5_698), (1, 0.15): (480, 5_698)}


@pytest.mark.parametrize("seed, fail", list(_KEPT))
def test_every_small_write_sequence_holds_only_fresh_reads(seed, fail):
    got = walk_sketch(6, 5, fail, seed)
    assert got.failures == []
    assert (got.levels, got.prefixes, (got.kept, got.partial)) \
        == (_LEVELS[fail], 9_331, _KEPT[seed, fail])
