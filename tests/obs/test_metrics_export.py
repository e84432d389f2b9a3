"""MetricStore, EngineMetrics compatibility, and Prometheus exposition."""

from repro.engine.metrics import EngineMetrics
from repro.obs import MetricStore, prometheus_exposition


class TestMetricStore:
    def test_counters_and_timers(self):
        store = MetricStore()
        store.count("queries_total")
        store.count("queries_total", 4)
        store.add_time("solve_seconds", 0.25)
        assert store.counter("queries_total") == 5
        assert store.seconds("solve_seconds") == 0.25
        assert store.counter("never") == 0

    def test_timer_context(self):
        store = MetricStore()
        with store.timer("t_seconds"):
            pass
        assert store.seconds("t_seconds") >= 0.0

    def test_engine_metrics_is_a_metric_store(self):
        """The engine's historical class is the shared core -- the
        Prometheus rendering comes for free."""
        metrics = EngineMetrics()
        assert isinstance(metrics, MetricStore)
        metrics.count("cache_misses")
        assert "cache_misses_total" in metrics.prometheus()


class TestPrometheusExposition:
    def test_counter_and_timer_rendering(self):
        store = MetricStore()
        store.count("queries_total", 7)
        store.add_time("solve_seconds", 1.5)
        text = prometheus_exposition(store)
        assert "# TYPE repro_queries_total_total counter" in text
        assert "repro_queries_total_total 7" in text
        assert "# TYPE repro_solve_seconds_total counter" in text
        assert "repro_solve_seconds_total 1.5" in text

    def test_terminated_by_eof_marker(self):
        assert prometheus_exposition(MetricStore()).endswith("# EOF\n")

    def test_name_sanitisation(self):
        store = MetricStore()
        store.count("weird-name.with/chars", 1)
        text = prometheus_exposition(store)
        assert "repro_weird_name_with_chars_total 1" in text

    def test_custom_prefix(self):
        store = MetricStore()
        store.count("hits", 2)
        assert "svc_hits_total 2" in prometheus_exposition(store, prefix="svc_")

    def test_deterministic_ordering(self):
        store = MetricStore()
        store.count("b")
        store.count("a")
        text = prometheus_exposition(store)
        assert text.index("repro_a_total") < text.index("repro_b_total")
