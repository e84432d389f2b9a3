"""Interactive Markov chains: model, composition, elapse, transformation."""

from repro.imc.alternating import (
    AlternationResult,
    make_alternating,
    make_interactive_alternating,
    make_markov_alternating,
    strictly_alternating,
    word_label,
)
from repro.imc.composition import (
    hide,
    hide_all_but,
    interleave,
    parallel,
    parallel_many,
    parallel_with_map,
    relabel,
)
from repro.imc.elapse import elapse
from repro.imc.labeled import LabeledIMC, add_tuples
from repro.imc.lts import cycle_lts, lts
from repro.imc.model import IMC, TAU, IMCBuilder, StateClass
from repro.imc.transform import TransformResult, TransformStatistics, imc_to_ctmdp

__all__ = [
    "IMC",
    "TAU",
    "IMCBuilder",
    "StateClass",
    "AlternationResult",
    "make_alternating",
    "make_interactive_alternating",
    "make_markov_alternating",
    "strictly_alternating",
    "word_label",
    "hide",
    "hide_all_but",
    "interleave",
    "parallel",
    "parallel_many",
    "parallel_with_map",
    "relabel",
    "elapse",
    "LabeledIMC",
    "add_tuples",
    "cycle_lts",
    "lts",
    "TransformResult",
    "TransformStatistics",
    "imc_to_ctmdp",
]
