"""The public surface: what `__all__` promises, and what was removed.

A stale `__all__` entry breaks `from starzagreb import *` with no other
test noticing, so every listed name is resolved here.  The names removed in
0.2.0 are pinned as unreachable; README's "Library" section gives each one's
replacement.
"""

from __future__ import annotations

import importlib

import pytest

import starzagreb
from starzagreb.graph import Graph
from starzagreb.zagreb import ZagrebGenFunc

MODULES = {
    name: importlib.import_module(f"starzagreb.{name}")
    for name in ("graph", "combinatorics", "star", "zagreb", "oracle", "cli")
}


@pytest.mark.parametrize("module", [starzagreb, *MODULES.values()], ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert len(set(module.__all__)) == len(module.__all__)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from starzagreb import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(starzagreb.__all__)


@pytest.mark.parametrize(
    "holder, name",
    [
        (starzagreb, "stirling2"),
        (starzagreb, "stirling1_signed"),
        (MODULES["combinatorics"], "stirling2"),
        (MODULES["combinatorics"], "stirling1_signed"),
        (Graph, "sorted_edges"),
        (ZagrebGenFunc, "denominator_coeffs"),
    ],
)
def test_removed_names_are_unreachable(holder, name):
    assert not hasattr(holder, name)
    assert name not in getattr(holder, "__all__", ())
