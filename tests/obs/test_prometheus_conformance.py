"""Prometheus text-format conformance and MetricStore thread-safety.

A scraper parses the exposition line by line, so the output must follow
the text-format grammar exactly: every sample family announced by
``# HELP`` then ``# TYPE`` (in that order, once each), sample lines
matching ``name{labels} value``, cumulative histogram buckets with a
terminal ``+Inf`` equal to ``_count``, and escaped label values.  The
store itself is hammered from concurrent writer threads -- one process
serves HTTP scrapes while solver threads record, so lost updates or torn
reads would surface as corrupt telemetry.
"""

import math
import re
import threading

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricStore,
    escape_label_value,
    prometheus_exposition,
)

#: Label values chosen to break naive exposition renderers: embedded
#: quotes, backslashes, newlines, and combinations that collide with
#: the escape sequences themselves.
HOSTILE_LABEL_VALUES = [
    'plain"quote',
    "back\\slash",
    "new\nline",
    'all\\"of\nthem\\',
    "\\n",  # literal backslash-n, must NOT collapse into a newline escape
    "",
]

_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_][a-zA-Z0-9_]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"(?:[^\"\\\n]|\\\\|\\\"|\\n)*\")*\})?"  # labels
    r" (?:[+-]?(?:\d+(?:\.\d+)?(?:e[+-]?\d+)?|Inf)|NaN)$"  # value
)


def _populated_store() -> MetricStore:
    store = MetricStore()
    store.count("queries_total", 7)
    store.count("weird-name.with/chars", 1)
    store.add_time("solve_seconds", 1.5)
    store.gauge("certificate_last_error_bound", 2.5e-11)
    store.gauge("certificate_error_bound_max", float("inf"))
    for value in (1e-11, 1e-7, 0.5, 100.0):
        store.observe("certificate_error_bound", value)
    store.set_info("build", version="1.0", channel='sta"ble\nnightly\\x')
    return store


class TestGrammar:
    def test_every_line_is_comment_or_valid_sample(self):
        text = prometheus_exposition(_populated_store())
        assert text.endswith("# EOF\n")
        for line in text.splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE|EOF)( [a-zA-Z_][a-zA-Z0-9_]* .*| .*)?$", line)
            else:
                assert _SAMPLE_RE.match(line), f"malformed sample line: {line!r}"

    def test_help_precedes_type_precedes_samples(self):
        text = prometheus_exposition(_populated_store())
        lines = text.splitlines()
        seen: dict[str, list[str]] = {}
        for line in lines:
            if line.startswith("# HELP "):
                name = line.split()[2]
                assert name not in seen, f"duplicate HELP for {name}"
                seen[name] = ["help"]
            elif line.startswith("# TYPE "):
                name = line.split()[2]
                assert seen.get(name) == ["help"], f"TYPE before HELP for {name}"
                seen[name].append("type")
            elif line and not line.startswith("#"):
                name = line.split("{")[0].split()[0]
                family = next((f for f in seen if name.startswith(f)), None)
                assert family is not None, f"sample {name} without HELP/TYPE"
                assert "type" in seen[family]

    def test_metric_names_sanitised(self):
        text = prometheus_exposition(_populated_store())
        assert "repro_weird_name_with_chars_total 1" in text

    def test_counter_and_timer_families_are_counters(self):
        text = prometheus_exposition(_populated_store())
        assert "# TYPE repro_queries_total_total counter" in text
        assert "# TYPE repro_solve_seconds_total counter" in text
        assert "repro_solve_seconds_total 1.5" in text

    def test_gauge_rendering_including_infinity(self):
        text = prometheus_exposition(_populated_store())
        assert "# TYPE repro_certificate_last_error_bound gauge" in text
        assert "repro_certificate_error_bound_max +Inf" in text

    def test_label_escaping(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        text = prometheus_exposition(_populated_store())
        assert 'channel="sta\\"ble\\nnightly\\\\x"' in text

    def test_info_metric_is_constant_one_gauge(self):
        text = prometheus_exposition(_populated_store())
        info_line = next(
            line for line in text.splitlines()
            if line.startswith("repro_build{")
        )
        assert info_line.endswith(" 1")
        assert 'version="1.0"' in info_line


class TestHostileLabels:
    """Escaping holds for adversarial label values everywhere labels occur."""

    def test_escape_round_trips(self):
        for value in HOSTILE_LABEL_VALUES:
            escaped = escape_label_value(value)
            unescaped = (
                escaped.replace("\\\\", "\x00")
                .replace("\\n", "\n")
                .replace('\\"', '"')
                .replace("\x00", "\\")
            )
            assert unescaped == value, f"not round-trippable: {value!r}"

    def test_hostile_info_labels_keep_grammar(self):
        store = MetricStore()
        for index, value in enumerate(HOSTILE_LABEL_VALUES):
            store.set_info(f"build_{index}", hostile=value)
        text = prometheus_exposition(store)
        for line in text.splitlines():
            if not line.startswith("#"):
                assert _SAMPLE_RE.match(line), f"malformed: {line!r}"


class TestHistogramConsistency:
    def test_buckets_cumulative_and_terminal(self):
        store = _populated_store()
        text = prometheus_exposition(store)
        bucket_lines = [
            line for line in text.splitlines()
            if line.startswith("repro_certificate_error_bound_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in bucket_lines]
        assert counts == sorted(counts), "buckets must be cumulative"
        assert 'le="+Inf"' in bucket_lines[-1]
        count_line = next(
            line for line in text.splitlines()
            if line.startswith("repro_certificate_error_bound_count")
        )
        assert int(count_line.rsplit(" ", 1)[1]) == counts[-1] == 4
        sum_line = next(
            line for line in text.splitlines()
            if line.startswith("repro_certificate_error_bound_sum")
        )
        observed_sum = float(sum_line.rsplit(" ", 1)[1])
        assert math.isclose(observed_sum, 1e-11 + 1e-7 + 0.5 + 100.0)

    def test_bucket_bounds_match_default_bounds(self):
        store = MetricStore()
        store.observe("latency", 1e-3)
        data = store.as_dict()["histograms"]["latency"]
        assert tuple(data["bounds"]) == DEFAULT_BUCKETS
        assert sum(data["counts"]) == 1


class TestThreadSafety:
    def test_concurrent_writers_lose_nothing(self):
        store = MetricStore()
        writers, per_writer = 8, 2000
        barrier = threading.Barrier(writers)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(per_writer):
                store.count("hits")
                store.add_time("work_seconds", 0.001)
                store.gauge("last_value", float(i))
                store.gauge("peak_value_max", float(worker * per_writer + i))
                store.observe("latency", 1e-6 * (i % 7 + 1))

        threads = [
            threading.Thread(target=hammer, args=(worker,)) for worker in range(writers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        total = writers * per_writer
        assert store.counter("hits") == total
        assert math.isclose(store.seconds("work_seconds"), 0.001 * total, rel_tol=1e-6)
        assert store.gauge_value("peak_value_max") == float(total - 1)
        histogram = store.as_dict()["histograms"]["latency"]
        assert sum(histogram["counts"]) == total

    def test_concurrent_scrapes_while_writing(self):
        store = MetricStore()
        stop = threading.Event()

        def write() -> None:
            while not stop.is_set():
                store.count("spins")
                store.observe("latency", 1e-6)

        def scrape() -> list[str]:
            texts = []
            for _ in range(50):
                texts.append(prometheus_exposition(store))
            return texts

        writer = threading.Thread(target=write)
        writer.start()
        try:
            for text in scrape():
                assert text.endswith("# EOF\n")
                # A torn histogram read would break cumulativity.
                buckets = [
                    int(line.rsplit(" ", 1)[1])
                    for line in text.splitlines()
                    if line.startswith("repro_latency_bucket")
                ]
                assert buckets == sorted(buckets)
        finally:
            stop.set()
            writer.join()
