"""Discrete-time substrate: the DTMDP."""

from repro.mdp.model import DTMDP

__all__ = ["DTMDP"]
