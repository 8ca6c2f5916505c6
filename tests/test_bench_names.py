"""The package names the benchmark's traced sweep replaces.

perfbench/sweeps.py traces a sweep by replacing functions by name in
bernblend's modules.  A rename in src/ would otherwise surface only in a
traced benchmark run (``--trace 1``); here it fails the test suite.
"""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # importing must leave perfbench/ as it is
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    sweeps = importlib.import_module("sweeps")
    targets = [(module, name) for module, name, _, _ in sweeps._SPANS]
    targets.append((sweeps.harness, "make_function"))
    for module, name in targets:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
