"""Every promised stream on four and five vertices, up to five updates."""

import pytest

from exhaustive import walk


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
