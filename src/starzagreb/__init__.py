"""Exact star-sequence, frequency-sequence and Zagreb-index computations
for simple graphs, with a brute-force verifier for every identity.

All arithmetic is exact: arbitrary-precision integers plus rationals for
the inverse-degree edge sum.  The package exports every name in the
`__all__` of its five library modules (combinatorics, graph, star, zagreb
and oracle), and declares none of its own.  The oracle, the brute-force
verifier, loads on first use: when `starzagreb.oracle`, one of its names
or the package's `__all__` is first read.  So a program that only
computes, such as the CLI's zagreb, info and genfunc, never loads it.
See the cli module for the command-line surface.
"""

import importlib

from . import combinatorics, graph, star, zagreb
from .combinatorics import *
from .graph import *
from .star import *
from .zagreb import *

__version__ = "0.7.0"


def __getattr__(name: str):
    # importlib, not `from . import oracle`: that statement reads this
    # package's attribute oracle, which would call this function again.
    oracle = importlib.import_module(".oracle", __name__)
    if name == "oracle":
        return oracle
    if name == "__all__":
        value = [
            *combinatorics.__all__,
            *graph.__all__,
            *star.__all__,
            *zagreb.__all__,
            *oracle.__all__,
            "__version__",
        ]
    elif name in oracle.__all__:
        value = getattr(oracle, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
