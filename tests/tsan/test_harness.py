"""Tests for the seeded interleaving harness (deterministic races)."""

import importlib.util
from pathlib import Path

import pytest

from tests.tsan.harness import HarnessDeadlock, InterleavingHarness, find_racy_seed

FIXTURES = Path(__file__).parents[1] / "fixtures" / "tsan"

#: Seed range scanned for a witnessing interleaving.
SEED_RANGE = range(32)


def load_fixture(name: str):
    """Import a planted-defect fixture module from its file path."""
    path = FIXTURES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"tsan_fixture_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counter_bodies(harness: InterleavingHarness, shared: dict, lock=None, n: int = 5):
    """Two bodies incrementing ``shared['count']`` n times each."""

    def body() -> None:
        for _ in range(n):
            if lock is not None:
                with lock:
                    value = shared["count"]
                    shared["count"] = value + 1
            else:
                value = shared["count"]
                shared["count"] = value + 1

    harness.add(body, name="inc-0")
    harness.add(body, name="inc-1")
    harness.trace(__file__)


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        def run(seed: int):
            harness = InterleavingHarness(seed=seed)
            shared = {"count": 0}
            counter_bodies(harness, shared)
            result = harness.run()
            assert result.ok
            return result.schedule, shared["count"]

        first = run(seed=7)
        second = run(seed=7)
        assert first == second

    def test_different_seeds_differ_somewhere(self):
        schedules = set()
        for seed in range(8):
            harness = InterleavingHarness(seed=seed)
            shared = {"count": 0}
            counter_bodies(harness, shared)
            schedules.add(harness.run().schedule)
        assert len(schedules) > 1

    def test_schedule_covers_all_threads(self):
        harness = InterleavingHarness(seed=3)
        shared = {"count": 0}
        counter_bodies(harness, shared)
        result = harness.run()
        assert set(result.schedule) == {0, 1}
        assert shared["count"] <= 10


class TestCooperativeLock:
    def test_lock_makes_counter_exact(self):
        # With the lock, every seed yields the correct total.
        for seed in range(8):
            harness = InterleavingHarness(seed=seed)
            shared = {"count": 0}
            counter_bodies(harness, shared, lock=harness.lock("counter"))
            result = harness.run()
            assert result.ok, result.errors
            assert shared["count"] == 10, f"seed {seed}"

    def test_release_of_unacquired_lock_raises(self):
        harness = InterleavingHarness(seed=0)
        lock = harness.lock("x")
        with pytest.raises(RuntimeError, match="unacquired"):
            lock.release()

    def test_non_blocking_acquire_fails_when_held(self):
        harness = InterleavingHarness(seed=0)
        lock = harness.lock("x")
        outcomes: list[bool] = []

        def holder() -> None:
            with lock:
                pass

        def prober() -> None:
            outcomes.append(lock.acquire(blocking=False))
            if outcomes[-1]:
                lock.release()

        harness.add(holder)
        harness.add(prober)
        result = harness.run()
        assert result.ok
        assert len(outcomes) == 1


class TestPlantedRace:
    """The acceptance criterion: the planted lost-update race reproduces
    deterministically under a fixed seed."""

    def build_racy(self, harness: InterleavingHarness):
        fixture = load_fixture("defect_unguarded_write")
        log = fixture.RacyEventLog()
        harness.trace(fixture.__file__)
        harness.add(lambda: log.record("a"), name="writer-a")
        harness.add(lambda: log.record("b"), name="writer-b")
        return lambda: log.snapshot()[0] != 2  # lost update observed

    def test_find_racy_seed_pins_a_witness(self):
        seed = find_racy_seed(self.build_racy, SEED_RANGE)
        assert seed is not None, (
            "no interleaving in the seed range lost an update; "
            "the planted race no longer reproduces"
        )

    def test_witness_seed_is_stable(self):
        seed = find_racy_seed(self.build_racy, SEED_RANGE)
        schedules = []
        for _ in range(2):
            harness = InterleavingHarness(seed=seed)
            check = self.build_racy(harness)
            result = harness.run()
            assert result.ok
            assert check(), "the witnessing seed stopped witnessing"
            schedules.append(result.schedule)
        assert schedules[0] == schedules[1]

    def test_locked_store_never_races(self):
        # The same interleavings cannot break the fixed store: swap the
        # racy read-modify-write for one under a cooperative lock.
        fixture = load_fixture("defect_unguarded_write")

        def build_fixed(harness: InterleavingHarness):
            log = fixture.RacyEventLog()
            lock = harness.lock("RacyEventLog._lock")
            log._lock = lock
            original = log.record

            def locked_record(payload: str) -> int:
                with lock:
                    count = log._count + 1
                    log._count = count
                    log._payloads.append(payload)
                    return count

            log.record = locked_record
            assert original is not locked_record
            harness.trace(fixture.__file__, __file__)
            harness.add(lambda: log.record("a"), name="writer-a")
            harness.add(lambda: log.record("b"), name="writer-b")
            return lambda: log.snapshot()[0] != 2

        assert find_racy_seed(build_fixed, SEED_RANGE) is None


class TestLifecycle:
    def test_empty_harness_is_trivially_ok(self):
        assert InterleavingHarness(seed=0).run().ok

    def test_body_exception_is_reported_not_raised(self):
        harness = InterleavingHarness(seed=0)

        def boom() -> None:
            raise ValueError("planted")

        harness.add(boom, name="boom")
        result = harness.run()
        assert not result.ok
        [(name, error)] = result.errors
        assert name == "boom"
        assert isinstance(error, ValueError)

    def test_switch_budget_guards_livelock(self):
        harness = InterleavingHarness(seed=0, max_switches=10)
        lock = harness.lock("held-forever")
        lock._owner = 99  # simulate a foreign owner that never releases

        def wants_lock() -> None:
            with lock:
                pass

        def spins() -> None:
            for _ in range(100):
                pass

        harness.add(wants_lock)
        harness.add(spins)
        harness.trace(__file__)
        result = harness.run()
        assert not result.ok
        assert any(
            isinstance(error, HarnessDeadlock) for _, error in result.errors
        )
