"""Tests for .tra/.lab round trips and DOT export."""

import numpy as np
import pytest

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.errors import ModelError
from repro.io.dot import ctmdp_to_dot, write_dot
from repro.io.tra import (
    read_ctmc_tra,
    read_ctmdp_tra,
    read_labels,
    write_ctmc_tra,
    write_ctmdp_tra,
    write_labels,
)
from repro.models.zoo import two_phase_race_ctmdp


class TestCTMCTra:
    def test_round_trip(self, tmp_path):
        chain = CTMC.from_transitions(
            3, [(0, 1, 1.5), (1, 2, 0.25), (2, 0, 3.0), (0, 0, 0.5)]
        )
        path = tmp_path / "chain.tra"
        write_ctmc_tra(chain, path)
        loaded = read_ctmc_tra(path)
        np.testing.assert_allclose(
            loaded.rates.toarray(), chain.rates.toarray()
        )

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.tra"
        path.write_text("STATES 2\nTRANSITIONS 5\n1 2 1.0\n")
        with pytest.raises(ModelError):
            read_ctmc_tra(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.tra"
        path.write_text("NOTHEADER 2\n")
        with pytest.raises(ModelError):
            read_ctmc_tra(path)


class TestCTMDPTra:
    def test_round_trip(self, tmp_path):
        ctmdp, _ = two_phase_race_ctmdp()
        path = tmp_path / "model.tra"
        write_ctmdp_tra(ctmdp, path)
        loaded = read_ctmdp_tra(path)
        assert loaded.num_states == ctmdp.num_states
        assert loaded.labels == ctmdp.labels
        assert loaded.initial == ctmdp.initial
        np.testing.assert_allclose(
            loaded.rate_matrix.toarray(), ctmdp.rate_matrix.toarray()
        )

    def test_preserves_duplicate_action_labels(self, tmp_path):
        from repro.core.ctmdp import CTMDP

        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {0: 1.0}), (0, "a", {1: 1.0}), (1, "x", {1: 1.0})]
        )
        path = tmp_path / "dup.tra"
        write_ctmdp_tra(ctmdp, path)
        loaded = read_ctmdp_tra(path)
        assert loaded.num_choices(0) == 2


class TestLabels:
    def test_round_trip(self, tmp_path):
        mask = np.array([True, False, True, False])
        path = tmp_path / "model.lab"
        write_labels(mask, "goal", path)
        loaded = read_labels(path, 4)
        np.testing.assert_array_equal(loaded["goal"], mask)

    def test_undeclared_proposition_rejected(self, tmp_path):
        path = tmp_path / "bad.lab"
        path.write_text("#DECLARATION\ngoal\n#END\n1 other\n")
        with pytest.raises(ModelError):
            read_labels(path, 2)

    def test_state_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "bad.lab"
        path.write_text("#DECLARATION\ngoal\n#END\n7 goal\n")
        with pytest.raises(ModelError):
            read_labels(path, 2)


class TestDot:
    def test_ctmdp_dot_has_decision_nodes(self):
        ctmdp, _ = two_phase_race_ctmdp()
        dot = ctmdp_to_dot(ctmdp)
        assert "shape=point" in dot
        assert "direct" in dot and "detour" in dot

    def test_write_dot(self, tmp_path):
        ctmdp, _ = two_phase_race_ctmdp()
        path = tmp_path / "race.dot"
        write_dot(ctmdp_to_dot(ctmdp), path)
        assert path.read_text().startswith("digraph")

    def test_one_labelled_edge_per_rate_entry(self):
        ctmdp, _ = two_phase_race_ctmdp()
        lines = ctmdp_to_dot(ctmdp).splitlines()
        rate_edges = [line for line in lines if line.startswith("  d") and "->" in line]
        assert len(rate_edges) == ctmdp.rate_matrix.nnz
        # The goal's self-loop keeps its rate, printed with %g.
        assert '  d3 -> s2 [label="11"];' in lines
        hyperedges = [line for line in lines if line.endswith("[arrowhead=none];")]
        assert len(hyperedges) == ctmdp.num_transitions

    def test_initial_state_is_double_circle(self):
        ctmdp = CTMDP.from_transitions(
            2, [(0, "a", {1: 1.0}), (1, "a", {0: 1.0})], initial=1
        )
        dot = ctmdp_to_dot(ctmdp)
        # Unnamed states are labelled by their index.
        assert '  s0 [label="0", shape=circle];' in dot
        assert '  s1 [label="1", shape=doublecircle];' in dot

    def test_labels_escaped(self):
        ctmdp = CTMDP.from_transitions(
            1, [(0, 'say "hi"', {0: 1.0})], state_names=["C:\\tmp"]
        )
        dot = ctmdp_to_dot(ctmdp)
        assert '[label="C:\\\\tmp", shape=doublecircle]' in dot
        assert '[label="say \\"hi\\"", shape=point]' in dot
