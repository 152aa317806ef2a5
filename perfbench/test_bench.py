"""Tests of the benchmark's own arithmetic and of its patching.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import pytest

import stats
import tracing


class TestSelfTime:
    def test_no_children(self):
        assert stats.self_time(10, 50, []) == 40

    def test_disjoint_children(self):
        assert stats.self_time(0, 100, [(10, 20), (30, 50)]) == 70

    def test_overlapping_children_count_once(self):
        assert stats.self_time(0, 100, [(10, 40), (30, 60), (60, 70)]) == 40

    def test_nested_and_unsorted_children(self):
        assert stats.self_time(0, 100, [(50, 90), (10, 20), (55, 60)]) == 50

    def test_children_clipped_to_the_span(self):
        assert stats.self_time(10, 50, [(0, 20), (40, 80), (60, 70)]) == 20

    def test_fully_covered(self):
        assert stats.self_time(0, 10, [(0, 5), (5, 10)]) == 0


class TestPercentiles:
    def test_small_sample_reports_median_only(self):
        samples = [float(x) for x in range(1, 100)]
        assert stats.percentile_report(samples) == {"p50": 50.0}

    def test_p90_needs_ten_samples_beyond(self):
        samples = [float(x) for x in range(1, 101)]
        assert stats.samples_beyond(100, 90.0) == 10
        report = stats.percentile_report(samples)
        assert report == {"p50": 50.5, "p90": 90.0}

    def test_highest_qualifying_percentile_wins(self):
        samples = [float(x) for x in range(1, 1001)]
        assert stats.percentile_report(samples) == {"p50": 500.5, "p99": 990.0}
        samples = [float(x) for x in range(1, 10001)]
        assert stats.percentile_report(samples) == {"p50": 5000.5, "p99.9": 9990.0}

    def test_just_short_of_ten_beyond(self):
        samples = [float(x) for x in range(1, 999)]
        assert stats.samples_beyond(998, 99.0) == 9
        assert set(stats.percentile_report(samples)) == {"p50", "p90"}

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            stats.percentile_report([])


class TestFailedShare:
    def test_counts(self):
        assert stats.failed_share(20, 0) == 0.0
        assert stats.failed_share(20, 5) == 0.25
        assert stats.failed_share(3, 3) == 1.0

    @pytest.mark.parametrize("attempted, failed", [(0, 0), (5, -1), (5, 6)])
    def test_impossible_counts_rejected(self, attempted, failed):
        with pytest.raises(ValueError):
            stats.failed_share(attempted, failed)


def test_quartile_spread():
    assert stats.quartile_spread([10.0] * 10) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # exclusive quartiles of 1..10 are 2.75 and 8.25
    assert stats.quartile_spread(values) == pytest.approx(5.5 / 5.5)


def test_every_import_site_is_patched_and_restored():
    import paczero.adversary  # noqa: F401  (loads every paczero module)
    from paczero import accounting, adversary, binary_channel, engine, harness, mechanism
    from paczero.tasks import BlobsTask, XorMlpTask

    originals = {
        "subset_signs": mechanism.subset_signs,
        "train": engine.train,
        "per_sample_losses": BlobsTask.per_sample_losses,
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sites = tracer.sites
        expected = {
            "mechanism.subset_signs": ["paczero.mechanism", "paczero.adversary"],
            "binary_channel.invert_channel_mi": ["paczero.mechanism"],
            "binary_channel.channel_mi": ["paczero.binary_channel", "paczero.accounting"],
            "mechanism.build_balanced_design": [
                "paczero.engine", "paczero.adversary", "paczero.harness"],
            "engine.train": ["paczero.adversary", "paczero.harness"],
            "accounting.validate_transcript": ["paczero.harness"],
        }
        for layer, modules in expected.items():
            for module in modules:
                assert any(site.startswith(module + ".") for site in sites[layer]), (layer, module)
        assert adversary.subset_signs is mechanism.subset_signs
        assert adversary.subset_signs is not originals["subset_signs"]
        assert harness.train is adversary.train is engine.train
        assert accounting.channel_mi is binary_channel.channel_mi
        assert "paczero.tasks.XorMlpTask.per_sample_losses" in sites["tasks.per_sample_losses"]
        assert XorMlpTask.per_sample_losses.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert mechanism.subset_signs is adversary.subset_signs is originals["subset_signs"]
    assert harness.train is engine.train is originals["train"]
    assert BlobsTask.per_sample_losses is originals["per_sample_losses"]


def test_traced_calls_nest_and_count():
    from paczero import binary_channel

    tracer = tracing.Tracer()
    tracer.install()
    try:
        binary_channel.invert_channel_mi(0.5, 0.1)
        with pytest.raises(ValueError):
            binary_channel.channel_mi(2.0, 1.0)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert set(metrics) == set(tracing.metric_names())
    assert metrics["binary_channel.invert_channel_mi.calls"] == 1
    evals = metrics["binary_channel.channel_mi.inversion.calls"]
    assert evals > 1
    assert metrics["binary_channel.channel_mi.calls"] == evals + 1
    assert metrics["binary_channel.channel_mi.errors"] == 1
    assert metrics["binary_channel.evals_per_inversion"] == evals
    inversion = metrics["binary_channel.invert_channel_mi.ms"]
    assert metrics["binary_channel.invert_channel_mi.self_ms"] == pytest.approx(
        inversion - metrics["binary_channel.channel_mi.inversion.ms"], abs=1e-6
    )
