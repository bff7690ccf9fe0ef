"""The public surface: what `__all__` promises, and what was removed.

A stale `__all__` entry breaks `from starzagreb import *` with no other
test noticing, so every listed name is resolved here.  The package's own
`__all__` is derived from its five library modules' lists, and its version
must match `pyproject.toml`.  The names removed in 0.2.0 and 0.4.0 are
pinned as unreachable; README's "Library" section gives each one's
replacement, and its example is run here so that a removal cannot leave it
stale.  Every public type is an immutable value class with the contract
pinned below, and the CLI loads the oracle only for verify.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import starzagreb
from starzagreb.graph import FrequencySequence, Graph
from starzagreb.oracle import ErratumNote, TheoremCheck, TheoremReport, TheoremResult
from starzagreb.star import Classification, StarSequence
from starzagreb.zagreb import RecurrenceCheck, ZagrebGenFunc

ROOT = Path(__file__).resolve().parents[1]

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


def test_package_exports_every_library_module_name():
    library = [name for name in MODULES if name != "cli"]
    expected = [n for name in library for n in MODULES[name].__all__] + ["__version__"]
    assert sorted(starzagreb.__all__) == sorted(expected)
    assert not set(starzagreb.__all__) & set(MODULES["cli"].__all__)


def test_version_matches_pyproject():
    # A regex, not tomllib: tomllib is missing on Python 3.10.
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, flags=re.MULTILINE)
    assert starzagreb.__version__ == version


@pytest.mark.parametrize(
    "holder, name",
    [
        (starzagreb, "stirling2"),
        (starzagreb, "stirling1_signed"),
        (MODULES["combinatorics"], "stirling2"),
        (MODULES["combinatorics"], "stirling1_signed"),
        (Graph, "sorted_edges"),
        (ZagrebGenFunc, "denominator_coeffs"),
        (starzagreb, "degrees"),
        (MODULES["graph"], "degrees"),
    ],
)
def test_removed_names_are_unreachable(holder, name):
    assert not hasattr(holder, name)
    assert name not in getattr(holder, "__all__", ())


def test_readme_library_example_shows_what_it_computes():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.MULTILINE | re.DOTALL)
    tree = ast.parse(block)
    namespace: dict = {}
    exec(compile(tree, "README.md", "exec"), namespace)
    shown = [
        eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        for stmt in tree.body
        if isinstance(stmt, ast.Expr)
    ]
    assert shown == [(6, 3, 1), (0, 3, 0, 1), 3**100 + 3, (4, -34, 92, -80, 0), True]


P3 = Graph(3, frozenset({(0, 1), (1, 2)}))
CHECK = TheoremCheck("S1", 0)
NOTE = ErratumNote("x", "y", False, None)
# One instance of each public type, its constructor's parameters in order,
# and its repr as the frozen dataclasses of 0.6.0 printed it.
VALUES = [
    (P3, ["n", "edges"], "Graph(n=3, edges=frozenset({(0, 1), (1, 2)}))"),
    (FrequencySequence((0, 2, 1)), ["counts"], "FrequencySequence(counts=(0, 2, 1))"),
    (StarSequence(3, 2, (1,)), ["n", "s1", "higher"], "StarSequence(n=3, s1=2, higher=(1,))"),
    (Classification("path"), ["kind", "degree"], "Classification(kind='path', degree=None)"),
    (
        ZagrebGenFunc(3, (3, -14, 15, 0)),
        ["n", "numerator"],
        "ZagrebGenFunc(n=3, numerator=(3, -14, 15, 0))",
    ),
    (RecurrenceCheck(3, 0), ["p", "residual"], "RecurrenceCheck(p=3, residual=0)"),
    (
        TheoremCheck("edge_sum", Fraction(1, 2)),
        ["label", "residual"],
        "TheoremCheck(label='edge_sum', residual=Fraction(1, 2))",
    ),
    (
        TheoremResult("inversion", (CHECK,)),
        ["name", "checks"],
        "TheoremResult(name='inversion', checks=(TheoremCheck(label='S1', residual=0),))",
    ),
    (
        NOTE,
        ["note_id", "description", "triggered", "witness"],
        "ErratumNote(note_id='x', description='y', triggered=False, witness=None)",
    ),
    (
        TheoremReport("Bw", 3, 2, 1, 0, (TheoremResult("moments", (CHECK,)),), (NOTE,)),
        ["graph_id", "n", "m", "p_max", "m_max", "theorems", "errata"],
        "TheoremReport(graph_id='Bw', n=3, m=2, p_max=1, m_max=0, "
        "theorems=(TheoremResult(name='moments', checks=(TheoremCheck(label='S1', residual=0),)),), "
        "errata=(ErratumNote(note_id='x', description='y', triggered=False, witness=None),))",
    ),
]


@pytest.mark.parametrize("value, params, text", VALUES, ids=lambda v: type(v).__name__)
def test_value_class_contract(value, params, text):
    cls = type(value)
    assert repr(value) == text
    assert list(inspect.signature(cls).parameters) == params
    fields = {name: getattr(value, name) for name in params}
    # Positional and keyword construction build equal values with equal
    # hashes; a copy through pickle is equal too, and of the same class.
    twin = cls(**fields)
    assert twin == value and not twin != value and twin is not value
    assert hash(twin) == hash(value)
    assert cls(*fields.values()) == value
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls and copy == value and hash(copy) == hash(value)
    # Another class never compares equal, even with the same field values.
    assert value.__eq__(tuple(fields.values())) is NotImplemented
    assert value != tuple(fields.values())
    for name in [*params, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {name: getattr(value, name) for name in params} == fields


def test_value_classes_differ_by_class_and_by_field():
    assert RecurrenceCheck(3, 0) != TheoremCheck(3, 0)
    assert Classification("regular", 2) != Classification("regular", 3)
    assert Classification("path") == Classification("path", None)
    assert Graph(3, frozenset()) != Graph(4, frozenset())
    # A witness is a dict, so a note that carries one is unhashable, as it
    # was as a frozen dataclass.
    with pytest.raises(TypeError):
        hash(ErratumNote("x", "y", True, {"p": "1"}))


def test_unpickling_calls_the_constructor():
    # So an unpickled value is checked like a new one, and carries no
    # cached property over.
    g = Graph(3, frozenset({(0, 1)}))
    assert g.vertex_degrees == (1, 1, 0)
    assert g.__reduce__() == (Graph, (3, frozenset({(0, 1)})))
    assert "vertex_degrees" not in vars(pickle.loads(pickle.dumps(g)))


def test_cli_loads_the_oracle_only_for_verify(tmp_path):
    # zagreb, info and genfunc need neither the brute-force verifier nor
    # the rationals and dataclasses modules; verify loads the oracle only.
    src = tmp_path / "batch.g6"
    src.write_text("Bw\nCr\n@\n")
    probe = """if True:
        import contextlib, io, sys
        import starzagreb.cli as cli
        lazy = ("starzagreb.oracle", "fractions", "dataclasses")
        loaded = lambda: [name for name in lazy if name in sys.modules]
        print("import", loaded())
        src = sys.argv[1]
        runs = [["zagreb", src, "--p", "9", "--method", "all"], ["info", src],
                ["genfunc", src, "--json"], ["verify", src]]
        for argv in runs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            print(argv[0], rc, loaded())
    """
    done = subprocess.run(
        [sys.executable, "-c", probe, str(src)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == [
        "import []",
        "zagreb 0 []",
        "info 0 []",
        "genfunc 0 []",
        "verify 0 ['starzagreb.oracle', 'fractions']",
    ]
