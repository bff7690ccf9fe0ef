"""Exact star-sequence, frequency-sequence and Zagreb-index computations
for simple graphs, with a brute-force verifier for every identity.

All arithmetic is exact: arbitrary-precision integers plus rationals for
the inverse-degree edge sum.  See the cli module for the command-line
surface.
"""

from .combinatorics import (
    binomial,
    falling_factorial_coeffs,
    stirling1_signed,
    stirling2,
)
from .graph import (
    FrequencySequence,
    Graph,
    GraphFormatError,
    degrees,
    frequency_sequence,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .oracle import (
    MAX_BRUTEFORCE_N,
    MAX_ENUM_N,
    ErratumNote,
    TheoremCheck,
    TheoremReport,
    TheoremResult,
    all_labeled_graphs,
    count_stars_bruteforce,
    labeled_graph_from_mask,
    series_expand_rational,
    star_counts_bruteforce,
    verify_all_identities,
)
from .star import (
    Classification,
    InconsistentSequenceError,
    StarSequence,
    alternating_moment,
    classify,
    frequency_from_star,
    inverse_degree_edge_sum,
    isolated_count_from_star,
    moment_identity_rhs,
    star_from_frequency,
    star_sequence,
)
from .zagreb import (
    RecurrenceCheck,
    ZagrebGenFunc,
    genfunc_numerator,
    recurrence_coeffs,
    verify_recurrence,
    zagreb_by_recurrence,
    zagreb_direct,
    zagreb_from_stars,
)

__version__ = "0.1.0"

__all__ = [
    "binomial",
    "stirling2",
    "stirling1_signed",
    "falling_factorial_coeffs",
    "Graph",
    "GraphFormatError",
    "FrequencySequence",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    "degrees",
    "frequency_sequence",
    "StarSequence",
    "Classification",
    "InconsistentSequenceError",
    "star_sequence",
    "star_from_frequency",
    "frequency_from_star",
    "alternating_moment",
    "moment_identity_rhs",
    "inverse_degree_edge_sum",
    "isolated_count_from_star",
    "classify",
    "ZagrebGenFunc",
    "RecurrenceCheck",
    "zagreb_direct",
    "zagreb_from_stars",
    "genfunc_numerator",
    "recurrence_coeffs",
    "zagreb_by_recurrence",
    "verify_recurrence",
    "MAX_ENUM_N",
    "MAX_BRUTEFORCE_N",
    "TheoremCheck",
    "TheoremResult",
    "ErratumNote",
    "TheoremReport",
    "count_stars_bruteforce",
    "star_counts_bruteforce",
    "all_labeled_graphs",
    "labeled_graph_from_mask",
    "series_expand_rational",
    "verify_all_identities",
    "__version__",
]
