"""The correctness oracle flags every kind of wrong answer."""

import json

from verify import Answer, answer_problems, verify


def _record(value, error_bound=1e-8, status="ok", error=None):
    return {
        "value": value,
        "error": error,
        "certificate": {"status": status, "error_bound": error_bound},
    }


def _query(t, family="ftwc", n=3, **extra):
    return {"model": {"family": family, "n": n}, "t": t, **extra}


def _oracle(values):
    """A reference runner answering from ``values`` keyed by (family, t, epsilon)."""
    sent = []

    def run(queries):
        sent.extend(queries)
        return [
            _record(values[(q["model"]["family"], q["t"], q.get("epsilon"))]) for q in queries
        ]

    return run, sent


def test_answer_problems():
    assert answer_problems(_record(0.5)) == []
    assert answer_problems(None) == ["no answer"]
    assert answer_problems(_record(None, error="boom")) == ["error: boom"]
    assert answer_problems(_record(1.5)) == ["value 1.5 outside [0, 1]"]
    assert answer_problems(_record(0.5, status="degraded")) == [
        "certificate status 'degraded'"
    ]


def test_answers_must_be_within_their_error_bound_of_the_reference():
    run, _sent = _oracle({("ftwc", 1.0, 1e-10): 0.5, ("ftwc", 2.0, 1e-10): 0.5})
    answers = [
        Answer(_query(1.0), _record(0.5 + 5e-9), "op"),
        Answer(_query(2.0), _record(0.5 + 5e-8), "op"),
    ]
    report = verify("cold-batch", 1, answers, run)
    assert report[0] == []
    assert "exceeds" in report[1][0]


def test_compositional_must_match_the_direct_route():
    values = {("ftwc", 100.0, 1e-10): 0.01, ("ftwc", 100.0, None): 0.01}
    run, sent = _oracle(values)
    comp = _query(100.0, family="ftwc-compositional")
    assert verify("compositional", 1, [Answer(comp, _record(0.01), "op")], run) == [[]]
    assert {q["model"]["family"] for q in sent} == {"ftwc"}

    run, _sent = _oracle(values)
    report = verify("compositional", 1, [Answer(comp, _record(0.01 + 1e-7), "op")], run)
    assert any("direct" in problem for problem in report[0])


def test_large_direct_answers_must_be_bitwise_equal_to_the_set_up():
    run, _sent = _oracle({("ftwc", 100.0, 1e-10): 0.25})
    query = _query(100.0, n=32)
    answers = [
        Answer(query, _record(0.25), "setup"),
        Answer(query, _record(0.25), "op"),
        Answer(query, _record(0.25 + 1e-15), "op"),
    ]
    report = verify("large-direct", 1, answers, run)
    assert report[:2] == [[], []]
    assert "bitwise" in report[2][0]


def test_warm_serve_checks_one_in_ten_op_answers_against_the_reference():
    times = [float(t) for t in range(1, 41)]
    run, sent = _oracle({("ftwc", t, 1e-10): 0.5 for t in [0.5, *times]})
    answers = [Answer(_query(0.5), _record(0.5), "setup")]
    answers += [Answer(_query(t), _record(0.5), "op") for t in times]
    assert verify("warm-serve", 3, answers, run) == [[]] * 41
    assert len(sent) == 1 + 4
    run_again, sent_again = _oracle({("ftwc", t, 1e-10): 0.5 for t in [0.5, *times]})
    verify("warm-serve", 3, answers, run_again)
    assert json.dumps(sent) == json.dumps(sent_again)
