"""Tests for query records and batch planning."""

import pytest

from repro.engine.plan import Query, plan_queries, query_from_dict
from repro.errors import ModelError

SPEC = {"family": "ftwc", "n": 1}


class TestQuery:
    def test_normalises_model_spec(self):
        query = Query(model=SPEC, t=10)
        assert query.model["params"]["ws_repair"] == 2.0
        assert query.t == 10.0
        assert isinstance(query.t, float)

    def test_as_dict_round_trips(self):
        query = Query(model=SPEC, t=5.0, objective="min", epsilon=1e-4)
        again = query_from_dict(query.as_dict())
        assert again == query

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"t": -1.0},
            {"t": "soon"},
            {"t": 1.0, "objective": "median"},
            {"t": 1.0, "goal": ""},
            {"t": 1.0, "epsilon": 0.0},
            {"t": 1.0, "epsilon": 2.0},
            {"t": float("nan")},
            {"t": float("inf")},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ModelError):
            Query(model=SPEC, **kwargs)


class TestQueryFromDict:
    def test_defaults_fill_missing_fields(self):
        query = query_from_dict({"t": 3.0}, defaults={"model": SPEC, "epsilon": 1e-4})
        assert query.t == 3.0
        assert query.epsilon == 1e-4

    def test_inline_fields_beat_defaults(self):
        query = query_from_dict(
            {"t": 3.0, "epsilon": 1e-2}, defaults={"model": SPEC, "epsilon": 1e-4}
        )
        assert query.epsilon == 1e-2

    def test_unknown_fields_rejected(self):
        with pytest.raises(ModelError):
            query_from_dict({"t": 1.0, "model": SPEC, "frequency": 2})

    def test_missing_model_and_t_rejected(self):
        with pytest.raises(ModelError):
            query_from_dict({"t": 1.0})
        with pytest.raises(ModelError):
            query_from_dict({"model": SPEC})


class TestPlanning:
    def test_groups_by_model_goal_objective(self):
        queries = [
            Query(model=SPEC, t=100.0),
            Query(model=SPEC, t=50.0),
            Query(model=SPEC, t=50.0, objective="min"),
            Query(model={"family": "ftwc", "n": 2}, t=50.0),
            Query(model=SPEC, t=50.0, goal="premium"),
        ]
        groups = plan_queries(queries)
        assert len(groups) == 4
        signatures = {(g.spec["n"], g.goal, g.objective) for g in groups}
        assert signatures == {
            (1, "no_premium", "max"),
            (1, "no_premium", "min"),
            (2, "no_premium", "max"),
            (1, "premium", "max"),
        }

    def test_members_sorted_by_time_bound(self):
        queries = [Query(model=SPEC, t=t) for t in (300.0, 10.0, 100.0)]
        (group,) = plan_queries(queries)
        assert group.time_bounds == [10.0, 100.0, 300.0]
        # Batch indices still point at the original positions.
        assert [index for index, _query in group.members] == [1, 2, 0]

    def test_epsilon_does_not_split_groups(self):
        queries = [
            Query(model=SPEC, t=10.0, epsilon=1e-6),
            Query(model=SPEC, t=20.0, epsilon=1e-4),
        ]
        assert len(plan_queries(queries)) == 1

    def test_plan_is_deterministic(self):
        queries = [
            Query(model={"family": "ftwc", "n": n}, t=10.0) for n in (2, 1, 2, 1)
        ]
        first = [g.model_key for g in plan_queries(queries)]
        second = [g.model_key for g in plan_queries(queries)]
        assert first == second == sorted(first)
