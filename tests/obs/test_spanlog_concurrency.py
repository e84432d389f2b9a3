"""Seeded-interleaving concurrency tests for the span log.

:class:`~repro.obs.http.SpanLog` serves a threaded HTTP server: pool
workers' span exports and ``/traces`` reads genuinely race.  These
tests swap the log's ``_lock`` for a harness
:class:`~tests.tsan.harness.CooperativeLock` and drive the *same
shipped code* through adversarial, line-level interleavings — every
seed must leave the log consistent, and the whole schedule is a pure
function of the seed, so a failure here replays exactly in CI.
"""

import repro.obs.http as http_mod
from repro.obs.http import SpanLog
from tests.tsan.harness import InterleavingHarness

#: Seeds replayed for every interleaving test.
SEEDS = range(8)


class TestSpanLogInterleavings:
    def test_concurrent_extend_and_tail(self):
        # Two workers exporting span batches while a reader tails: no
        # torn records, both batches complete, reader sees a prefix.
        for seed in SEEDS:
            harness = InterleavingHarness(seed=seed)
            log = SpanLog(maxlen=64)
            log._lock = harness.lock("SpanLog._lock")
            harness.trace(http_mod)
            tails: list[list[dict]] = []

            def exporter(worker: str) -> None:
                for index in range(4):
                    log.extend([{"name": f"{worker}-{index}", "worker": worker}])

            harness.add(lambda: exporter("a"), name="exporter-a")
            harness.add(lambda: exporter("b"), name="exporter-b")
            harness.add(lambda: tails.append(log.tail(limit=100)), name="reader")
            result = harness.run()
            assert result.ok, (seed, result.errors)
            assert len(log) == 8
            names = [record["name"] for record in log.tail()]
            # Each worker's records stay in its own export order.
            for worker in ("a", "b"):
                own = [n for n in names if n.startswith(worker)]
                assert own == sorted(own)
            # The mid-race tail saw some consistent prefix interleaving.
            [seen] = tails
            assert len(seen) <= 8

    def test_ring_bound_holds_under_interleaving(self):
        for seed in SEEDS:
            harness = InterleavingHarness(seed=seed)
            log = SpanLog(maxlen=5)
            log._lock = harness.lock("SpanLog._lock")
            harness.trace(http_mod)

            def exporter(worker: str) -> None:
                log.extend({"name": f"{worker}-{i}"} for i in range(4))

            harness.add(lambda: exporter("a"))
            harness.add(lambda: exporter("b"))
            result = harness.run()
            assert result.ok, (seed, result.errors)
            assert len(log) == 5  # bounded, newest kept
