"""Reference code the test suite cross-checks production code against.

Two kinds live here.  Most oracles are a second, deliberately simple
implementation of an algorithm that ``src/repro`` ships exactly once
(the per-line ``.tra`` reader, the ``Config``-object FTWC generator,
plain value iteration, ...).  The others are independent checkers that
the library itself does not need: strong bisimulation and
disjoint-union equivalence (:mod:`tests.oracles.bisim`), Monte-Carlo
simulation under explicit schedulers (:mod:`tests.oracles.simulate`)
and after-the-fact CTMDP uniformisation (:mod:`tests.oracles.uniformity`).

Benchmarks import them too, so run those as ``python -m pytest
benchmarks/...`` from the repository root (that puts the root, and with
it ``tests.oracles``, on the import path).
"""
