"""Monte-Carlo simulation of CTMCs and scheduled CTMDPs."""

from repro.sim.imc_sim import (
    Resolver,
    first_resolver,
    random_resolver,
    simulate_imc_reachability,
)
from repro.sim.simulate import (
    SimulationEstimate,
    simulate_ctmc_reachability,
    simulate_ctmdp_reachability,
)

__all__ = [
    "Resolver",
    "first_resolver",
    "random_resolver",
    "simulate_imc_reachability",
    "SimulationEstimate",
    "simulate_ctmc_reachability",
    "simulate_ctmdp_reachability",
]
