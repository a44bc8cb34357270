"""The unified percentile helper."""

from repro.telemetry.stats import percentile


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([42.0], 0.99) == 42.0

    def test_nearest_rank_convention(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.50) == 2.0   # ceil(0.5*4)=2nd rank
        assert percentile(values, 0.75) == 3.0
        assert percentile(values, 1.00) == 4.0
        assert percentile(values, 0.0) == 1.0    # clamped to the first rank

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_p99_of_small_samples_is_the_max(self):
        values = list(range(50))
        assert percentile(values, 0.99) == 49

    def test_overload_quantiles_use_the_shared_helper(self):
        from repro.overload.harness import OverloadBucket

        values = [float(v) for v in range(1, 101)]
        bucket = OverloadBucket(
            index=0, start_request=0, start_time=0.0, response_times=values
        )
        assert bucket.p50 == percentile(values, 0.50)
        assert bucket.p99 == percentile(values, 0.99)

