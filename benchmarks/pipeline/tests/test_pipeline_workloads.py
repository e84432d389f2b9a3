"""The generated inputs depend on the seed alone, and every round has
the same mix of work."""

import math
from collections import Counter

import pytest
from workloads import WORKLOADS, round_ops, setup_queries


def _inputs(name, seed):
    return setup_queries(name, seed), [round_ops(name, seed, index) for index in range(3)]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _inputs(name, 7) == _inputs(name, 7)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_different_seed_gives_different_inputs(name):
    assert _inputs(name, 7) != _inputs(name, 8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_warm_serve_round_is_stratified(seed):
    queries = [op[0] for op in round_ops("warm-serve", seed, 0)]
    assert Counter(q["model"]["n"] for q in queries) == {4: 16, 8: 16, 16: 16}
    for n in (4, 8, 16):
        mine = [q for q in queries if q["model"]["n"] == n]
        assert set(Counter((q["objective"], q["goal"]) for q in mine).values()) == {4}
        strata = sorted(int(16 * math.log(q["t"]) / math.log(2000.0)) for q in mine)
        assert strata == list(range(16))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cold_batch_round_covers_every_model_and_objective(seed):
    ops = round_ops("cold-batch", seed, 0)
    assert all(len(op) == 1 for op in ops)
    combos = {(op[0]["model"]["n"], op[0]["objective"]) for op in ops}
    assert combos == {(n, o) for n in (2, 3, 4) for o in ("max", "min")}
    assert all(10.0 <= op[0]["t"] <= 500.0 for op in ops)


def test_large_direct_ops_repeat_the_set_up_queries():
    setup = setup_queries("large-direct", 5)
    for index in range(3):
        (op,) = round_ops("large-direct", 5, index)
        assert sorted(op, key=lambda q: q["t"]) == setup
