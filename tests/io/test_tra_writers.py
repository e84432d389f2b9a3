"""The ``.tra`` writers against the per-entry reference writers.

:func:`repro.io.tra.write_ctmdp_tra` and :func:`repro.io.tra.write_ctmc_tra`
format each row, state index and distinct rate once and write the body
with one ``join``; :mod:`tests.oracles.tra` keeps the writers they
replaced, one f-string and one ``float.__repr__`` per entry.  Both must
write the same bytes.
"""

import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.io.tra import write_ctmc_tra, write_ctmdp_tra
from repro.models.ftwc_direct import build_ctmc, build_ctmdp
from tests.core.test_cone import ctmcs_with_goals
from tests.core.test_reachability_properties import models_with_goals
from tests.oracles import tra as oracle

#: Rates whose shortest round-tripping ``repr`` needs 17 significant
#: digits, extremes of the float range, and plain ones.  Drawn from a
#: small pool, they repeat across rows.
AWKWARD_RATES = [
    0.1 + 0.2,
    1 / 3,
    2 / 3,
    0.1 + 0.7,
    5e-324,
    2.2250738585072014e-308,
    1.7976931348623157e308,
    1e22,
    1e16,
    123456789.01234567,
    0.5,
    2.0,
]
RATES = st.sampled_from(AWKWARD_RATES) | st.floats(5e-324, 1e300)


def assert_same_bytes(write, write_reference, model, directory):
    path, reference = directory / "new.tra", directory / "reference.tra"
    write(model, path)
    write_reference(model, reference)
    assert path.read_bytes() == reference.read_bytes()


@st.composite
def ctmdps(draw, max_states=5):
    n = draw(st.integers(1, max_states))
    transitions = []
    for state in range(n):
        for choice in range(draw(st.integers(0, 3))):
            action = draw(st.sampled_from(["tau", f"a{choice}", "g_wsL"]))
            rates = draw(st.dictionaries(st.integers(0, n - 1), RATES, min_size=1, max_size=4))
            transitions.append((state, action, rates))
    return CTMDP.from_transitions(n, transitions, initial=draw(st.integers(0, n - 1)))


@st.composite
def ctmcs(draw, max_states=5):
    n = draw(st.integers(1, max_states))
    rates = sp.lil_matrix((n, n))
    for src in range(n):
        for dst, rate in draw(st.dictionaries(st.integers(0, n - 1), RATES, max_size=4)).items():
            rates[src, dst] = rate
    return CTMC(rates=sp.csr_matrix(rates))


class TestFTWC:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_ctmdp(self, tmp_path, n):
        model = build_ctmdp(n).ctmdp
        assert_same_bytes(write_ctmdp_tra, oracle.write_ctmdp_tra, model, tmp_path)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_ctmc(self, tmp_path, n):
        chain = build_ctmc(n)[0]
        assert_same_bytes(write_ctmc_tra, oracle.write_ctmc_tra, chain, tmp_path)


class TestGeneratedModels:
    @given(data=models_with_goals())
    @settings(max_examples=60, deadline=None)
    def test_uniform_ctmdps(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("ctmdp")
        assert_same_bytes(write_ctmdp_tra, oracle.write_ctmdp_tra, data[0], directory)

    @given(data=ctmcs_with_goals())
    @settings(max_examples=60, deadline=None)
    def test_random_ctmcs(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("ctmc")
        assert_same_bytes(write_ctmc_tra, oracle.write_ctmc_tra, data[0], directory)

    @given(model=ctmdps())
    @settings(max_examples=80, deadline=None)
    def test_ctmdps_with_awkward_rates(self, tmp_path_factory, model):
        directory = tmp_path_factory.mktemp("ctmdp")
        assert_same_bytes(write_ctmdp_tra, oracle.write_ctmdp_tra, model, directory)

    @given(chain=ctmcs())
    @settings(max_examples=80, deadline=None)
    def test_ctmcs_with_awkward_rates(self, tmp_path_factory, chain):
        directory = tmp_path_factory.mktemp("ctmc")
        assert_same_bytes(write_ctmc_tra, oracle.write_ctmc_tra, chain, directory)


class TestRates:
    def test_repeated_seventeen_digit_rates(self, tmp_path):
        third = 1 / 3
        assert len(repr(0.1 + 0.2).replace("0.", "", 1)) == 17
        model = CTMDP.from_transitions(
            3,
            [(0, "a", {1: 0.1 + 0.2, 2: third}), (1, "b", {0: third}), (2, "a", {2: 0.1 + 0.2})],
        )
        assert_same_bytes(write_ctmdp_tra, oracle.write_ctmdp_tra, model, tmp_path)
        body = (tmp_path / "new.tra").read_text().splitlines()[3:]
        assert body == [
            "1 a 1 2 0.30000000000000004",
            f"1 a 1 3 {third!r}",
            f"2 b 2 1 {third!r}",
            "3 a 3 3 0.30000000000000004",
        ]

    def test_no_entries(self, tmp_path):
        assert_same_bytes(
            write_ctmdp_tra, oracle.write_ctmdp_tra, CTMDP.from_transitions(2, []), tmp_path
        )
        chain = CTMC(rates=sp.csr_matrix((2, 2)))
        assert_same_bytes(write_ctmc_tra, oracle.write_ctmc_tra, chain, tmp_path)
