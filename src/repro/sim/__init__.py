"""Monte-Carlo simulation of closed IMCs."""

from repro.sim.imc_sim import (
    Resolver,
    SimulationEstimate,
    random_resolver,
    simulate_imc_reachability,
)

__all__ = [
    "Resolver",
    "SimulationEstimate",
    "random_resolver",
    "simulate_imc_reachability",
]
