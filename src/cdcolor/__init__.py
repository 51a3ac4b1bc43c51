"""Exact and parameterized solvers for class-domination coloring.

A cd-coloring is a proper coloring where each color class lies in the
closed neighborhood of some vertex.  The package computes the minimum
number of classes exactly, recognizes the 3-colorable cases in
polynomial time, runs fast paths for girth-5 and split graphs, and
solves the bounded vertex-deletion variants for 2 and 3 colors.

``import cdcolor`` loads no submodule: each public name below is
imported from its module on first use (PEP 562), so a process pays only
for the solvers it calls.
"""

from importlib import import_module

_EXPORTS = {
    "coloring": ("CdColoring", "ValidationReport", "validate_cd_coloring"),
    "errors": (
        "CapacityError",
        "CdColorError",
        "NotSplitError",
        "ParseError",
        "PreconditionError",
    ),
    "exact": ("cd_chromatic_bruteforce", "cd_chromatic_exact"),
    "fpt": ("odd_cycle_transversal", "vertex_cover"),
    "graph": (
        "Graph",
        "connected_components",
        "girth",
        "parse_graph",
        "split_partition",
        "to_dimacs",
    ),
    "partize": (
        "DeletionSolution",
        "TypeWitness",
        "cd_recognize_upto3",
        "delete_to_type1",
        "delete_to_type2",
        "delete_to_type3",
        "delete_to_type4",
        "delete_to_type5",
        "partization",
        "partization2",
        "partization3",
        "validate_deletion",
    ),
    "split": (
        "GeneratedInstance",
        "cd_chromatic_split",
        "generate_from_partization",
        "generate_from_setcover",
        "split_partization",
    ),
    "tds": (
        "KernelOutcome",
        "TdsCertificate",
        "cd_chromatic_girth5",
        "is_total_dominating",
        "kernel_size_bound",
        "tds_kernelize",
        "tds_solve",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's module on first use; a submodule name
    (``cdcolor.exact``) imports that submodule."""
    if name in _MODULE_OF:
        value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
