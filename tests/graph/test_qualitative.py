"""Qualitative Prob0/Prob1 sets: oracles, invariants, numeric agreement.

The brute-force oracle exploits that memoryless schedulers suffice for
qualitative reachability: for models small enough to enumerate every
stationary scheduler, each induced chain is classified exactly with
scipy's SCC machinery (``Pr = 0`` iff no path to the goal, ``Pr = 1``
iff every reachable bottom SCC of the goal-absorbed chain is a goal
state), and the four sets are the any/all aggregates over schedulers.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctmdp import CTMDP
from repro.core.reachability import timed_reachability
from repro.graph import (
    graph_of,
    prob0_exists,
    prob0_forall,
    prob1_exists,
    prob1_forall,
    qualitative_analysis,
)
from repro.models import ftwc_direct
from tests.core.test_reachability_properties import (
    models_with_goals,
    random_uniform_ctmdps,
)
from tests.oracles.value_iteration import unbounded_reachability


@st.composite
def small_models_with_goals(draw):
    """Small enough to enumerate every stationary scheduler."""
    ctmdp = draw(random_uniform_ctmdps(max_states=4))
    mask = np.zeros(ctmdp.num_states, dtype=bool)
    mask[draw(st.integers(0, ctmdp.num_states - 1))] = True
    return ctmdp, mask


def classify_chain(adjacency: sp.csr_matrix, goal: np.ndarray):
    """Exact (prob0, prob1) masks of one induced chain via scipy.

    ``adjacency`` is the boolean support of the goal-absorbed chain.
    """
    n = goal.shape[0]
    # Transitive reachability including the state itself.
    closure = csgraph.shortest_path(adjacency, method="D", unweighted=True)
    reaches = np.isfinite(closure)
    prob0 = ~(reaches @ goal.astype(bool))
    _, labels = csgraph.connected_components(
        adjacency, directed=True, connection="strong"
    )
    # Bottom SCCs: no edge leaves the component (deadlocks included).
    rows, cols = adjacency.nonzero()
    has_exit = np.zeros(labels.max() + 1, dtype=bool)
    cross = labels[rows] != labels[cols]
    has_exit[labels[rows[cross]]] = True
    bottom_goal_free = np.zeros(n, dtype=bool)
    for c in range(labels.max() + 1):
        members = np.flatnonzero(labels == c)
        if not has_exit[c] and not goal[members].any():
            bottom_goal_free[members] = True
    prob1 = ~(reaches @ bottom_goal_free)
    return prob0, prob1


def oracle_sets(ctmdp: CTMDP, goal: np.ndarray):
    """The four qualitative sets by enumerating stationary schedulers."""
    n = ctmdp.num_states
    graph = graph_of(ctmdp)
    counts = np.diff(graph.choice_ptr)
    p0 = []
    p1 = []
    for pick in itertools.product(*(range(c) for c in counts)):
        rows_list = []
        cols_list = []
        for state in range(n):
            if goal[state]:
                rows_list.append(state)
                cols_list.append(state)
                continue
            row = int(graph.choice_ptr[state]) + pick[state]
            for target in graph.row_targets(row):
                rows_list.append(state)
                cols_list.append(int(target))
        adjacency = sp.csr_matrix(
            (np.ones(len(rows_list), dtype=bool), (rows_list, cols_list)),
            shape=(n, n),
        )
        zero, one = classify_chain(adjacency, goal)
        p0.append(zero)
        p1.append(one)
    p0 = np.array(p0)
    p1 = np.array(p1)
    return {
        "prob0_forall": p0.all(axis=0),
        "prob0_exists": p0.any(axis=0),
        "prob1_exists": p1.any(axis=0),
        "prob1_forall": p1.all(axis=0),
    }


@pytest.fixture
def maze() -> CTMDP:
    """0 chooses a sure path to goal 1 or a coin that may drop into the
    trap 2; 3 is disconnected."""
    return CTMDP.from_transitions(
        4,
        [
            (0, "sure", {1: 1.0}),
            (0, "coin", {1: 1.0, 2: 1.0}),
            (1, "stay", {1: 1.0}),
            (2, "stay", {2: 1.0}),
            (3, "stay", {3: 1.0}),
        ],
    )


class TestMaze:
    def test_four_sets(self, maze):
        analysis = qualitative_analysis(maze, [1])
        np.testing.assert_array_equal(
            analysis.prob0_forall, [False, False, True, True]
        )
        # The coin scheduler avoids nothing for sure, but never *reaches*
        # for sure either -- only the "sure" action is almost-sure.
        np.testing.assert_array_equal(
            analysis.prob0_exists, [False, False, True, True]
        )
        np.testing.assert_array_equal(
            analysis.prob1_exists, [True, True, False, False]
        )
        np.testing.assert_array_equal(
            analysis.prob1_forall, [False, True, False, False]
        )
        assert analysis.counts() == {
            "prob0_forall": 2,
            "prob0_exists": 2,
            "prob1_exists": 2,
            "prob1_forall": 1,
        }

    def test_prob0_exists_witness(self, maze):
        graph = graph_of(maze)
        zero, witness = prob0_exists(graph, [1], with_witness=True)
        np.testing.assert_array_equal(zero, [False, False, True, True])
        # The self-loops are the goal-avoiding choices.
        assert witness[2] == 0 and witness[3] == 0
        assert witness[0] == -1 and witness[1] == -1


class TestOracle:
    @given(data=small_models_with_goals())
    @settings(max_examples=50, deadline=None)
    def test_all_four_sets_match_scheduler_enumeration(self, data):
        ctmdp, goal = data
        graph = graph_of(ctmdp)
        expected = oracle_sets(ctmdp, goal)
        np.testing.assert_array_equal(
            prob0_forall(graph, goal), expected["prob0_forall"]
        )
        np.testing.assert_array_equal(
            np.asarray(prob0_exists(graph, goal)), expected["prob0_exists"]
        )
        np.testing.assert_array_equal(
            prob1_exists(graph, goal), expected["prob1_exists"]
        )
        np.testing.assert_array_equal(
            prob1_forall(graph, goal), expected["prob1_forall"]
        )


class TestInvariants:
    @given(data=models_with_goals())
    @settings(max_examples=60, deadline=None)
    def test_set_inclusions(self, data):
        ctmdp, goal = data
        analysis = qualitative_analysis(ctmdp, goal)
        # Forall implies exists on both sides, goal states are certain,
        # and certainty excludes impossibility.
        assert (analysis.prob0_forall <= analysis.prob0_exists).all()
        assert (analysis.prob1_forall <= analysis.prob1_exists).all()
        assert analysis.prob1_forall[goal].all()
        assert not (analysis.prob1_exists & analysis.prob0_forall).any()
        assert not (analysis.prob1_forall & analysis.prob0_exists).any()


class TestNumericAgreement:
    @given(data=models_with_goals(), t=st.floats(0.5, 25.0))
    @settings(max_examples=40, deadline=None)
    def test_prob0_states_have_zero_timed_value(self, data, t):
        """Prob0A states stay at exactly zero under max timed VI, and
        Prob0E states under min -- no round-off ever leaks mass in."""
        ctmdp, goal = data
        graph = graph_of(ctmdp)
        sup = timed_reachability(ctmdp, goal, t, epsilon=1e-10).values
        assert (sup[prob0_forall(graph, goal)] == 0.0).all()
        inf = timed_reachability(
            ctmdp, goal, t, epsilon=1e-10, objective="min"
        ).values
        assert (inf[np.asarray(prob0_exists(graph, goal))] == 0.0).all()

    @given(data=models_with_goals())
    @settings(max_examples=30, deadline=None)
    def test_prob1_states_reach_one_in_unbounded_vi(self, data):
        """Plain unbounded VI on the embedded DTMDP converges to 1 on
        the Prob1 set of its objective (the strategy's transition weights
        bound the contraction factor away from 1, so tol=1e-13 lands well
        within 1e-6)."""
        ctmdp, goal = data
        graph = graph_of(ctmdp)
        embedded = ctmdp.embedded_dtmdp()
        sup = unbounded_reachability(embedded, goal, objective="max", tol=1e-13)
        assert (sup[prob1_exists(graph, goal)] >= 1.0 - 1e-6).all()
        inf = unbounded_reachability(embedded, goal, objective="min", tol=1e-13)
        assert (inf[prob1_forall(graph, goal)] >= 1.0 - 1e-6).all()

    @given(data=models_with_goals(), t=st.floats(0.5, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_timed_value_positive_outside_prob0(self, data, t):
        """Conversely: any state outside Prob0A has strictly positive
        maximal timed probability at every positive horizon."""
        ctmdp, goal = data
        graph = graph_of(ctmdp)
        sup = timed_reachability(ctmdp, goal, t, epsilon=1e-12).values
        reachable_mass = ~prob0_forall(graph, goal)
        assert (sup[reachable_mass] > 0.0).all()


class TestFTWCAnchor:
    def test_every_state_is_almost_sure(self):
        """In the FTWC the premium condition is revisited from anywhere:
        all 275 states of N=2 are Prob1 for both objectives and the
        Prob0 sets are empty."""
        model = ftwc_direct.build_ctmdp(2)
        analysis = qualitative_analysis(model.ctmdp, model.goal_mask)
        assert analysis.counts() == {
            "prob0_forall": 0,
            "prob0_exists": 0,
            "prob1_exists": 275,
            "prob1_forall": 275,
        }
