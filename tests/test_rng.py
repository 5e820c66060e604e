"""The seeded generator's type and range checks."""

import pytest

from chaincliq import SINGLE_STEP, SearchConfig, SplitMix64, local_search_min_ratio, random_chain

NON_INTEGER_SEEDS = [1.5, 3.0, "3", True, False, None]


class TestSeed:
    @pytest.mark.parametrize("seed", NON_INTEGER_SEEDS, ids=repr)
    def test_non_integer_seed_is_rejected(self, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            SplitMix64(seed)

    @pytest.mark.parametrize("seed", NON_INTEGER_SEEDS, ids=repr)
    def test_callers_reject_it_before_drawing(self, seed):
        with pytest.raises(ValueError, match="must be an integer"):
            random_chain(3, 3, SINGLE_STEP, seed)
        with pytest.raises(ValueError, match="must be an integer"):
            local_search_min_ratio(SearchConfig(n=3, r=3, budget=1, seed=seed))


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
