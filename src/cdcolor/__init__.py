"""Exact and parameterized solvers for class-domination coloring.

A cd-coloring is a proper coloring where each color class lies in the
closed neighborhood of some vertex.  The package computes the minimum
number of classes exactly, recognizes the 3-colorable cases in
polynomial time, runs fast paths for girth-5 and split graphs, and
solves the bounded vertex-deletion variants for 2 and 3 colors.
"""

from .coloring import CdColoring, ValidationReport, validate_cd_coloring
from .errors import (
    CapacityError,
    CdColorError,
    NotSplitError,
    ParseError,
    PreconditionError,
)
from .exact import (
    CoefficientTable,
    build_color_class_family,
    cd_chromatic_bruteforce,
    cd_chromatic_exact,
    star_product,
)
from .fpt import (
    oct_excluding,
    oct_with_forced_sides,
    odd_cycle_transversal,
    vertex_cover,
)
from .graph import (
    Graph,
    connected_components,
    girth,
    parse_graph,
    split_partition,
    to_dimacs,
)
from .partize import (
    DeletionSolution,
    RecognitionResult,
    TypeWitness,
    cd_recognize_upto3,
    delete_to_type1,
    delete_to_type2,
    delete_to_type3,
    delete_to_type4,
    delete_to_type5,
    partization2,
    partization3,
    partization_bruteforce,
    recognize_type,
    validate_deletion,
)
from .split import (
    GeneratedInstance,
    cd_chromatic_split,
    generate_from_partization,
    generate_from_setcover,
    split_cd_coloring,
    split_partization,
)
from .tds import (
    KernelOutcome,
    TdsCertificate,
    cd_chromatic_girth5,
    cd_coloring_from_tds,
    is_total_dominating,
    kernel_size_bound,
    tds_bruteforce,
    tds_kernelize,
    tds_solve,
)

__version__ = "0.1.0"
