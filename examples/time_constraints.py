"""Phase-type time constraints and compositional minimisation.

Demonstrates the paper's Section 3 machinery beyond the FTWC:

1. build several phase-type distributions (exponential, Erlang,
   hypoexponential, Coxian) and verify their moments;
2. wrap one into an elapse time constraint and watch uniformization at
   work: the absorbing state keeps ticking with a Poisson self-loop;
3. compose a small pipeline system (two sequential processing stages
   with a shared operator who must attend each handover -- the
   nondeterminism), minimise it with stochastic branching bisimulation,
   and check that the quotient analyses identically to the original.

Run with::

    python examples/time_constraints.py
"""

from repro.bisim import branching_minimize
from repro.bisim.quotient import map_labels_through
from repro.core import timed_reachability
from repro.ctmc import PhaseType
from repro.imc import elapse, hide_all_but, imc_to_ctmdp, lts, parallel


def show_phase_types() -> None:
    print("=== phase-type distributions ===")
    distributions = {
        "Exp(0.5)": PhaseType.exponential(0.5),
        "Erlang(4, 2)": PhaseType.erlang(4, 2.0),
        "Hypo(1, 2, 4)": PhaseType.hypoexponential([1.0, 2.0, 4.0]),
        "Coxian": PhaseType.coxian([2.0, 1.0], [0.3, 1.0]),
    }
    for name, ph in distributions.items():
        print(
            f"  {name:14s} mean={ph.mean():7.4f}  var={ph.variance():7.4f}  "
            f"P(X <= mean)={ph.cdf(ph.mean()):.4f}"
        )
    erlang = distributions["Erlang(4, 2)"].uniformized()
    loop = erlang.chain.rate(erlang.absorbing, erlang.absorbing)
    print(
        f"\n  After uniformization the Erlang's absorbing state re-enters "
        f"itself at rate {loop:g} -- 'reentered from itself according to a "
        f"Poisson distribution' (Section 2)."
    )


def build_pipeline():
    """Two stages; a shared operator must attend each stage's handover."""
    stage = lts(
        3,
        [(0, "start", 1), (1, "finish", 2), (2, "handover", 0)],
        state_names=["idle", "busy", "done"],
    )
    # Stage 1 processes Erlang(2)-distributed jobs, stage 2 exponential.
    from repro.imc import relabel

    stage1 = relabel(stage, {"start": "start1", "finish": "finish1", "handover": "h1"})
    stage2 = relabel(stage, {"start": "start2", "finish": "finish2", "handover": "h2"})
    clock1 = elapse(PhaseType.erlang(2, 6.0), fire="finish1", reset="start1", started=False)
    clock2 = elapse(PhaseType.exponential(2.0), fire="finish2", reset="start2", started=False)
    operator = lts(
        2,
        [(0, "h1", 1), (0, "h2", 1), (1, "rest", 0)],
        state_names=["attending", "resting"],
    )
    rest_clock = elapse(PhaseType.exponential(8.0), fire="rest", reset="h1", started=False)

    system = parallel(stage1, clock1, sync=["start1", "finish1"])
    system = parallel(system, stage2, sync=[])
    system = parallel(system, clock2, sync=["start2", "finish2"])
    system = parallel(system, operator, sync=["h1", "h2"])
    system = parallel(system, rest_clock, sync=["rest", "h1"])
    return hide_all_but(system)


HORIZONS = (0.5, 2.0)


def analyse(model, labels) -> dict:
    """Worst- and best-case P(some stage done within t) per horizon t."""
    transformed = imc_to_ctmdp(model, require_uniform=True)
    goal = transformed.goal_mask_from_predicate(lambda s: labels[s], via="markov")
    return {
        (t, objective): timed_reachability(
            transformed.ctmdp, goal, t, epsilon=1e-8, objective=objective
        ).value(transformed.ctmdp.initial)
        for t in HORIZONS
        for objective in ("max", "min")
    }


def main() -> None:
    show_phase_types()

    print("\n=== compositional pipeline system ===")
    system = build_pipeline()
    print(f"composed closed system: {system}")
    print(f"uniform: {system.is_uniform(closed=True)}  "
          f"E = {system.uniform_rate(closed=True):g}")

    labels = ["done" in system.name_of(s) for s in range(system.num_states)]
    quotient, partition = branching_minimize(system, labels=labels)
    print(f"branching-bisimulation quotient: {quotient} "
          f"({system.num_states} -> {quotient.num_states} states)")
    quotient_labels = map_labels_through(partition, labels)

    original = analyse(system, labels)
    for t in HORIZONS:
        print(f"worst-case P(some stage done within {t} h) = {original[t, 'max']:.6f}")
    identical = analyse(quotient, quotient_labels) == original
    print(f"quotient analyses identically (worst and best case): {identical}")


if __name__ == "__main__":
    main()
