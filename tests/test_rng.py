"""The seeded generator's range checks."""

import pytest

from chaincliq import SplitMix64


class TestBelow:
    def test_full_64_bit_range_is_the_largest_bound(self):
        rng = SplitMix64(0)
        expected = SplitMix64(0).next_u64()
        assert rng.below(2**64) == expected

    @pytest.mark.parametrize("bound", [0, -1, 2**64 + 1, 2**100])
    def test_out_of_range_bound_raises_before_drawing(self, bound):
        rng = SplitMix64(7)
        with pytest.raises(ValueError, match="bound"):
            rng.below(bound)
        assert rng.state == 7
