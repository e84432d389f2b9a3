"""Interchange formats: ETMCC-style .tra/.lab files and GraphViz DOT."""

from repro.io.dot import ctmdp_to_dot, write_dot
from repro.io.json_io import (
    ctmc_from_json,
    ctmc_to_json,
    ctmdp_from_json,
    ctmdp_to_json,
    imc_from_json,
    imc_to_json,
    load_model,
    save_model,
)
from repro.io.tra import (
    read_ctmc_tra,
    read_ctmdp_tra,
    read_labels,
    write_ctmc_tra,
    write_ctmdp_tra,
    write_labels,
)

__all__ = [
    "ctmdp_to_dot",
    "write_dot",
    "ctmc_from_json",
    "ctmc_to_json",
    "ctmdp_from_json",
    "ctmdp_to_json",
    "imc_from_json",
    "imc_to_json",
    "load_model",
    "save_model",
    "read_ctmc_tra",
    "read_ctmdp_tra",
    "read_labels",
    "write_ctmc_tra",
    "write_ctmdp_tra",
    "write_labels",
]
