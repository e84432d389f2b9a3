"""Reference implementations the test suite cross-checks production code against.

Each oracle is a second, deliberately simple implementation of an
algorithm that ``src/repro`` ships exactly once.  Benchmarks import them
too, so run those as ``python -m pytest benchmarks/...`` from the
repository root (that puts the root, and with it ``tests.oracles``, on
the import path).
"""
