"""Vectorised forward/backward reachability against a plain DFS oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import graph_of
from repro.models import ftwc_direct
from tests.conftest import random_imcs
from tests.core.test_reachability_properties import random_uniform_ctmdps
from tests.oracles.graph import dfs_backward_reachable, dfs_reachable_from

graphs = st.one_of(random_uniform_ctmdps(), random_imcs()).map(graph_of)


@st.composite
def graphs_with_sets(draw):
    """A graph, a start state, a target mask and an optional ``through`` mask."""
    graph = draw(graphs)
    n = graph.num_states
    masks = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=bool)
    )
    return graph, draw(st.integers(0, n - 1)), draw(masks), draw(st.none() | masks)


class TestAgainstDFS:
    @given(data=graphs_with_sets())
    @settings(max_examples=150, deadline=None)
    def test_forward(self, data):
        graph, start, _targets, through = data
        np.testing.assert_array_equal(
            graph.reachable_from(start, through=through),
            dfs_reachable_from(graph, start, through),
        )

    @given(data=graphs_with_sets())
    @settings(max_examples=150, deadline=None)
    def test_backward(self, data):
        graph, _start, targets, through = data
        np.testing.assert_array_equal(
            graph.backward_reachable(targets, through=through),
            dfs_backward_reachable(graph, targets, through),
        )

    def test_ftwc(self):
        model = ftwc_direct.build_ctmdp(4)
        graph = graph_of(model.ctmdp)
        safe = ~model.goal_mask
        for through in (None, safe):
            np.testing.assert_array_equal(
                graph.reachable_from(through=through),
                dfs_reachable_from(graph, model.ctmdp.initial, through),
            )
            np.testing.assert_array_equal(
                graph.backward_reachable(model.goal_mask, through=through),
                dfs_backward_reachable(graph, model.goal_mask, through),
            )

    def test_default_start_is_initial(self):
        model = ftwc_direct.build_ctmdp(1)
        graph = graph_of(model.ctmdp)
        np.testing.assert_array_equal(
            graph.reachable_from(), graph.reachable_from(model.ctmdp.initial)
        )
