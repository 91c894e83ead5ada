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


# seed -> prefixes that a kept level read served.  At capacity 1 both
# failure targets give 4 levels of 1 x 1 grids, so their walks agree
@pytest.mark.parametrize("fail", [0.3, 0.45])
@pytest.mark.parametrize("seed, kept", [(0, 2_660), (1, 3_352)])
def test_every_small_write_sequence_holds_only_fresh_reads(fail, seed,
                                                           kept):
    got = walk_sketch(6, 5, fail, seed)
    assert got.failures == []
    assert (got.levels, got.prefixes, got.kept) == (4, 9_331, kept)
