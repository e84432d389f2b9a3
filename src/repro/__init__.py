"""repro: uniformity by construction for nondeterministic stochastic systems.

A reproduction of Hermanns & Johr, "Uniformity by Construction in the
Analysis of Nondeterministic Stochastic Systems" (DSN 2007): a
compositional construction kit for *uniform* interactive Markov chains
(IMCs), the transformation of closed uniform IMCs into uniform
continuous-time Markov decision processes (CTMDPs), and the timed
reachability algorithm of Baier et al. for the latter, evaluated on the
fault-tolerant workstation cluster case study.

Typical usage::

    from repro import imc, core
    from repro.models import ftwc_direct

    model = ftwc_direct.build_ctmdp(n=4)
    result = core.timed_reachability(model.ctmdp, model.goal_mask, t=100.0)
    print(result.value(model.ctmdp.initial))
"""

from repro.errors import (
    CompositionError,
    ModelError,
    NonUniformError,
    NumericalError,
    ReproError,
    SchedulerError,
    TransformationError,
)

__version__ = "1.0.0"

# The subpackages are imported when named (``from repro import core``),
# not here: every CLI process imports this package, and most commands
# need only a few of them.
__all__ = [
    "analysis",
    "bisim",
    "core",
    "ctmc",
    "engine",
    "imc",
    "io",
    "logic",
    "mdp",
    "models",
    "numerics",
    "sim",
    "CompositionError",
    "ModelError",
    "NonUniformError",
    "NumericalError",
    "ReproError",
    "SchedulerError",
    "TransformationError",
]
