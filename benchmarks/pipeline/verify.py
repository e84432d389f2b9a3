"""Correctness oracle of the pipeline benchmark.

Every answer must carry no ``error``, a value in ``[0, 1]`` and a
healthy certificate.  On top of that:

* answers are within their certified error of a reference answer,
  ``|v - ref| <= certificate.error_bound + 1e-9``, where ``ref`` comes
  from an untimed ``repro batch`` at ``epsilon = 1e-10`` on the direct
  model.  ``warm-serve`` checks a seeded one-in-ten sample of its op
  answers (and all set-up answers), every other workload checks all;
* ``compositional`` values equal the direct ``ftwc`` model's at the same
  precision within a relative ``1e-6``;
* ``large-direct`` answers, whether built or read from the cache, are
  bitwise equal to the first set-up's answer to the same query.

The checks run after the timed loops.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["Answer", "answer_problems", "verify"]

REFERENCE_EPSILON = 1e-10
SLACK = 1e-9
ROUTE_RTOL = 1e-6
SAMPLE_EVERY = 10


@dataclass
class Answer:
    """A query the benchmark sent, the record it got back (``None`` if
    the child gave none) and whether it was sent in a set-up or an op."""

    query: dict[str, Any]
    record: dict[str, Any] | None
    phase: str


def _key(query: dict[str, Any]) -> str:
    return json.dumps(query, sort_keys=True)


def _direct(query: dict[str, Any], epsilon: float | None = None) -> dict[str, Any]:
    """``query`` on the direct ``ftwc`` model of the same size."""
    twin = dict(query, model=dict(query["model"], family="ftwc"))
    if epsilon is not None:
        twin["epsilon"] = epsilon
    return twin


def answer_problems(record: dict[str, Any] | None) -> list[str]:
    """What is wrong with one result record on its own."""
    if record is None:
        return ["no answer"]
    if record.get("error") is not None:
        return [f"error: {record['error']}"]
    problems = []
    value = record.get("value")
    if not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
        problems.append(f"value {value!r} outside [0, 1]")
    certificate = record.get("certificate") or {}
    if certificate.get("status") != "ok":
        problems.append(f"certificate status {certificate.get('status')!r}")
    return problems


def _sampled(name: str, seed: int, answers: list[Answer]) -> list[bool]:
    """Which answers get the reference check."""
    if name != "warm-serve":
        return [True] * len(answers)
    ops = [i for i, answer in enumerate(answers) if answer.phase == "op"]
    rng = random.Random(f"verify:{name}:{seed}")
    chosen = set(rng.sample(ops, math.ceil(len(ops) / SAMPLE_EVERY)))
    return [answer.phase != "op" or i in chosen for i, answer in enumerate(answers)]


def verify(
    name: str,
    seed: int,
    answers: list[Answer],
    run_reference: Callable[[list[dict[str, Any]]], list[dict[str, Any] | None]],
) -> list[list[str]]:
    """The problems of every answer of workload ``name``, in order.

    ``run_reference(queries)`` answers the reference queries (one
    untimed batch) and returns one record per query.
    """
    sampled = _sampled(name, seed, answers)
    wanted: dict[str, dict[str, Any]] = {}
    for answer, check in zip(answers, sampled):
        if check:
            reference = _direct(answer.query, REFERENCE_EPSILON)
            wanted[_key(reference)] = reference
        if name == "compositional":
            twin = _direct(answer.query)
            wanted[_key(twin)] = twin
    queries = list(wanted.values())
    references = dict(zip(wanted, run_reference(queries)))

    first_setup: dict[str, float] = {}
    if name == "large-direct":
        for answer in answers:
            if answer.phase == "setup" and not answer_problems(answer.record):
                first_setup.setdefault(_key(answer.query), answer.record["value"])

    report = []
    for answer, check in zip(answers, sampled):
        problems = answer_problems(answer.record)
        if not problems:
            value = answer.record["value"]
            if check:
                reference = references.get(_key(_direct(answer.query, REFERENCE_EPSILON)))
                bound = answer.record["certificate"]["error_bound"] + SLACK
                if answer_problems(reference):
                    problems.append("reference failed")
                elif abs(value - reference["value"]) > bound:
                    problems.append(
                        f"|{value} - reference {reference['value']}| exceeds {bound}"
                    )
            if name == "compositional":
                twin = references.get(_key(_direct(answer.query)))
                if answer_problems(twin):
                    problems.append("direct twin failed")
                elif abs(value - twin["value"]) > ROUTE_RTOL * abs(twin["value"]):
                    problems.append(f"compositional {value} != direct {twin['value']}")
            if name == "large-direct":
                expected = first_setup.get(_key(answer.query))
                if value != expected:
                    problems.append(f"{value!r} is not bitwise equal to set-up {expected!r}")
        report.append(problems)
    return report
