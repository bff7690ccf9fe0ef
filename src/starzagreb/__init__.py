"""Exact star-sequence, frequency-sequence and Zagreb-index computations
for simple graphs, with a brute-force verifier for every identity.

All arithmetic is exact: arbitrary-precision integers plus rationals for
the inverse-degree edge sum.  The package exports every name in the
`__all__` of its five library modules (combinatorics, graph, star, zagreb
and oracle), and declares none of its own.  See the cli module for the
command-line surface.
"""

from . import combinatorics, graph, oracle, star, zagreb
from .combinatorics import *
from .graph import *
from .oracle import *
from .star import *
from .zagreb import *

__version__ = "0.6.0"

__all__ = [
    *combinatorics.__all__,
    *graph.__all__,
    *star.__all__,
    *zagreb.__all__,
    *oracle.__all__,
    "__version__",
]
