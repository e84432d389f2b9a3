"""Small example systems the test suite builds its cases from.

Each has a hand-computable or independently checkable answer, and each
exercises one part of the library on something that is not the FTWC:
an Erlang-versus-exponential race (step-dependent scheduling), two
queueing CTMCs, a uniform cycle and a producer/consumer IMC composed
from uIMCs.
"""

from __future__ import annotations

import numpy as np

from repro.core.ctmdp import CTMDP
from repro.ctmc.model import CTMC
from repro.ctmc.phase_type import PhaseType
from repro.errors import ModelError
from repro.imc.composition import hide_all_but, parallel
from repro.imc.elapse import elapse
from repro.imc.lts import lts
from repro.imc.model import IMC


def erlang_vs_exponential_race(
    phases: int = 3, rate_scale: float = 3.0, exponential_rate: float = 1.0
) -> tuple[CTMDP, np.ndarray]:
    """Choose between an Erlang(k, k*r) delay and an Exp(r) delay to a goal.

    Both branches have mean ``1/r``; the Erlang branch is far more
    predictable (lower variance).  For small time bounds the exponential
    branch wins (it can fire early), for bounds beyond the mean the
    Erlang branch wins -- another crossover that exercises step-dependent
    scheduling.  The model is uniformized at the maximal exit rate.
    """
    if phases < 2:
        raise ModelError("need at least two Erlang phases for a contrast")
    erlang_rate = rate_scale * phases * exponential_rate
    total = max(erlang_rate, exponential_rate) * 1.0
    # States: 0 = choice, 1..phases-1 = Erlang stages, phases = goal.
    goal_state = phases
    transitions: list[tuple[int, str, dict[int, float]]] = [
        (0, "erlang", {1 if phases > 1 else goal_state: erlang_rate,
                       0: total - erlang_rate} if total > erlang_rate
         else {1 if phases > 1 else goal_state: erlang_rate}),
        (0, "exponential", {goal_state: exponential_rate, 0: total - exponential_rate}),
    ]
    for stage in range(1, phases):
        nxt = stage + 1 if stage + 1 < phases else goal_state
        rates = {nxt: erlang_rate}
        if total > erlang_rate:
            rates[stage] = total - erlang_rate
        transitions.append((stage, "stage", rates))
    transitions.append((goal_state, "stay", {goal_state: total}))
    names = ["choice"] + [f"stage{k}" for k in range(1, phases)] + ["goal"]
    ctmdp = CTMDP.from_transitions(
        phases + 1, transitions, initial=0, state_names=names
    )
    goal = np.zeros(phases + 1, dtype=bool)
    goal[goal_state] = True
    return ctmdp, goal


def queue_with_breakdowns(
    capacity: int = 5,
    arrival: float = 1.0,
    service: float = 2.0,
    breakdown: float = 0.05,
    repair: float = 0.5,
) -> tuple[CTMC, np.ndarray]:
    """An M/M/1/K queue whose server breaks down and is repaired.

    A classical dependability CTMC: states ``(queue length, server up)``;
    the goal set is "queue full" (loss states).  Used in examples and to
    exercise the CTMC machinery on something beyond toy chains.
    """
    if capacity < 1:
        raise ModelError("capacity must be at least one")

    def idx(length: int, up: bool) -> int:
        return length * 2 + (1 if up else 0)

    transitions: list[tuple[int, int, float]] = []
    for length in range(capacity + 1):
        for up in (True, False):
            src = idx(length, up)
            if length < capacity:
                transitions.append((src, idx(length + 1, up), arrival))
            if up and length > 0:
                transitions.append((src, idx(length - 1, up), service))
            if up:
                transitions.append((src, idx(length, False), breakdown))
            else:
                transitions.append((src, idx(length, True), repair))
    chain = CTMC.from_transitions(
        2 * (capacity + 1),
        transitions,
        initial=idx(0, True),
        state_names=[
            f"len={length},{'up' if up else 'down'}"
            for length in range(capacity + 1)
            for up in (False, True)
        ],
    )
    goal = np.zeros(chain.num_states, dtype=bool)
    goal[idx(capacity, True)] = True
    goal[idx(capacity, False)] = True
    return chain, goal


def cyclic_ctmc(states: int = 4, rate: float = 1.0) -> CTMC:
    """A uniform cycle CTMC, handy for closed-form cross-checks."""
    if states < 2:
        raise ModelError("a cycle needs at least two states")
    transitions = [(k, (k + 1) % states, rate) for k in range(states)]
    return CTMC.from_transitions(states, transitions, initial=0)


def producer_consumer_imc(
    buffer_size: int = 2, produce_rate: float = 2.0, consume_rate: float = 3.0
) -> IMC:
    """A produce/consume system built compositionally from uIMCs.

    A producer emits items after an exponential delay, a consumer takes
    them after its own delay, and a bounded-buffer LTS mediates.  The
    closed composition is uniform by construction (Lemmas 1 and 2) with
    rate ``produce_rate + consume_rate`` and exercises elapse + parallel
    + hide end to end on something that is not the FTWC.
    """
    if buffer_size < 1:
        raise ModelError("buffer must hold at least one item")
    producer = elapse(PhaseType.exponential(produce_rate), fire="put", reset="ack_put")
    consumer = elapse(PhaseType.exponential(consume_rate), fire="get", reset="ack_get")

    # Buffer LTS over {put, ack_put, get, ack_get}: counts items and
    # acknowledges each access (the acknowledgement re-arms the clock).
    states: list[str] = []
    transitions: list[tuple[int, str, int]] = []
    for count in range(buffer_size + 1):
        states.append(f"n={count}")
    ack_offset = len(states)
    for count in range(buffer_size + 1):
        states.append(f"n={count},ack_put")
        states.append(f"n={count},ack_get")
    for count in range(buffer_size + 1):
        if count < buffer_size:
            transitions.append((count, "put", ack_offset + 2 * (count + 1)))
            transitions.append((ack_offset + 2 * (count + 1), "ack_put", count + 1))
        if count > 0:
            transitions.append((count, "get", ack_offset + 2 * (count - 1) + 1))
            transitions.append((ack_offset + 2 * (count - 1) + 1, "ack_get", count - 1))
    buffer = lts(len(states), transitions, initial=0, state_names=states)

    system = parallel(producer, buffer, sync=["put", "ack_put"])
    system = parallel(system, consumer, sync=["get", "ack_get"])
    return hide_all_but(system)


def tandem_queue(
    capacity: int = 3,
    arrival: float = 1.5,
    service_first: float = 2.0,
    service_second: float = 2.5,
) -> tuple[CTMC, np.ndarray]:
    """A tandem of two finite M/M/1 queues (a classical CTMC benchmark).

    Customers arrive at the first queue with rate ``arrival``, move to
    the second after an exponential service, and leave after the second
    service; arrivals (respectively handovers) are lost when the target
    queue is full.  States are pairs ``(n1, n2)``; the goal set marks
    the fully congested configuration -- "both queues full", the usual
    performance question asked of this model.
    """
    if capacity < 1:
        raise ModelError("queues need capacity of at least one")
    for name, rate in (
        ("arrival", arrival),
        ("service_first", service_first),
        ("service_second", service_second),
    ):
        if rate <= 0.0:
            raise ModelError(f"{name} rate must be positive")

    def idx(n1: int, n2: int) -> int:
        return n1 * (capacity + 1) + n2

    transitions: list[tuple[int, int, float]] = []
    for n1 in range(capacity + 1):
        for n2 in range(capacity + 1):
            src = idx(n1, n2)
            if n1 < capacity:
                transitions.append((src, idx(n1 + 1, n2), arrival))
            if n1 > 0 and n2 < capacity:
                transitions.append((src, idx(n1 - 1, n2 + 1), service_first))
            if n2 > 0:
                transitions.append((src, idx(n1, n2 - 1), service_second))
    chain = CTMC.from_transitions(
        (capacity + 1) ** 2,
        transitions,
        initial=idx(0, 0),
        state_names=[
            f"n1={n1},n2={n2}"
            for n1 in range(capacity + 1)
            for n2 in range(capacity + 1)
        ],
    )
    goal = np.zeros(chain.num_states, dtype=bool)
    goal[idx(capacity, capacity)] = True
    return chain, goal
