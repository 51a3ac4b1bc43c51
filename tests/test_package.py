"""The package's public names, its records, and what each process imports."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdcolor
from cdcolor.cli import main
from cdcolor.coloring import CdColoring, ValidationReport
from cdcolor.graph import Graph, to_dimacs
from cdcolor.partize import DeletionSolution, TypeWitness
from cdcolor.split import GeneratedInstance
from cdcolor.tds import KernelOutcome, TdsCertificate

from _shapes import cycle_graph, path_graph

PUBLIC = [
    "CapacityError", "CdColorError", "CdColoring", "DeletionSolution",
    "GeneratedInstance", "Graph", "KernelOutcome", "NotSplitError",
    "ParseError", "PreconditionError", "TdsCertificate", "TypeWitness",
    "ValidationReport", "cd_chromatic_bruteforce", "cd_chromatic_exact",
    "cd_chromatic_girth5", "cd_chromatic_split", "cd_recognize_upto3",
    "connected_components", "delete_to_type1",
    "delete_to_type2", "delete_to_type3", "delete_to_type4", "delete_to_type5",
    "generate_from_partization", "generate_from_setcover", "girth",
    "is_total_dominating", "kernel_size_bound", "odd_cycle_transversal",
    "parse_graph",
    "partization", "partization2", "partization3",
    "split_partition", "split_partization", "tds_kernelize", "tds_solve",
    "to_dimacs", "validate_cd_coloring", "validate_deletion", "vertex_cover",
]
SOLVERS = {"exact", "fpt", "generate", "partize", "split", "tds"}
SRC = str(Path(cdcolor.__file__).resolve().parents[1])


def test_public_names_resolve_to_their_modules():
    assert sorted(cdcolor.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(cdcolor))
    for name in PUBLIC:
        obj = getattr(cdcolor, name)
        assert obj.__module__.startswith("cdcolor.")
        assert obj is getattr(importlib.import_module(obj.__module__), name)
    namespace = {}
    exec("from cdcolor import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC
    assert cdcolor.exact is importlib.import_module("cdcolor.exact")


def test_every_module_level_import_is_used():
    """Each name a module imports at its top level is read somewhere in it."""
    for path in sorted(Path(SRC, "cdcolor").glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = (alias.asname or alias.name).split(".")[0]
                assert name in used, f"{path.name} never uses its import {name}"


# Definitions that nothing in src/ calls, kept for their callers outside it.
# A name leaves this list when its last such caller goes: the bench-only two
# with ROADMAP item 2's bench change.
CALLED_FROM_OUTSIDE_SRC = {
    # bench/cli_mix.py, and the CI step "Deletion for q = 4 solves each
    # component once"
    "disjoint_union",
    "weight_masks",  # bench/layers.py
    "Graph.without",  # bench/cli_mix.py
}


def test_src_defines_only_what_src_reaches():
    """Each top-level function or class of src/cdcolor, and each method of
    such a class, is referenced somewhere in src/cdcolor: by a name, an
    attribute or a string (so ``_EXPORTS`` entries count). Test-only code
    lives in tests/_shapes.py and tests/_brute.py instead."""
    defined, referenced = set(), set()
    for path in sorted(Path(SRC, "cdcolor").glob("*.py")):
        tree = ast.parse(path.read_text())
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defined.add((stmt.name, stmt.name))
            if isinstance(stmt, ast.ClassDef):
                defined.update(
                    (f"{stmt.name}.{item.name}", item.name)
                    for item in stmt.body
                    if isinstance(item, ast.FunctionDef)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    unreached = {
        qualname
        for qualname, name in defined
        if name not in referenced and not (name.startswith("__") and name.endswith("__"))
    }
    extra = sorted(unreached - CALLED_FROM_OUTSIDE_SRC)
    assert not extra, f"src/cdcolor defines, but never references: {extra}"
    stale = sorted(CALLED_FROM_OUTSIDE_SRC - unreached)
    assert not stale, f"gone from src/cdcolor, or referenced there now: {stale}"


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        cdcolor.no_such_name
    with pytest.raises(ImportError):
        exec("from cdcolor import no_such_name", {})


def test_records_keep_fields_defaults_and_repr():
    g = path_graph(2)
    coloring = CdColoring(((0,), (1,)), (0, 1))
    witness = TypeWitness(1, (0, 1), coloring)
    records = [
        (CdColoring, ((0, 1),), (0,)),
        (ValidationReport, False, "vertex 1 is uncolored"),
        (TdsCertificate, 3, 2),
        (KernelOutcome, "REDUCED", 0b11, 0b01, None),
        (TypeWitness, 1, (0, 1), coloring),
        (DeletionSolution, 4, (("Type1", witness),), coloring),
        (GeneratedInstance, g, 1, 2, True, {"hub": "x"}, "setcover"),
    ]
    for cls, *values in records:
        fields = [f for f in cls.__annotations__]
        rec = cls(*values)
        assert rec == cls(**dict(zip(fields, values)))
        assert [getattr(rec, f) for f in fields] == values
        assert repr(rec) == f"{cls.__name__}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, values)
        ) + ")"
        assert rec != cls(*values[:-1], "other")
    assert ValidationReport(True) == ValidationReport(True, None)
    assert KernelOutcome("NO", reason="k = 0") == KernelOutcome("NO", 0, 0, "k = 0")
    assert coloring.q == 2
    assert DeletionSolution(0b101, (), coloring).size == 2


def _loaded_after(code: str) -> set:
    """Module names a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport sys\nprint(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_import_cdcolor_loads_no_submodule():
    assert {m for m in _loaded_after("import cdcolor") if m.startswith("cdcolor")} == {
        "cdcolor"
    }


def test_each_subcommand_imports_only_its_solvers(tmp_path, capsys):
    c5 = tmp_path / "c5.dimacs"
    c5.write_text(to_dimacs(Graph(5, cycle_graph(5).adj, labels=(1, 2, 3, 4, 5))))
    k4 = tmp_path / "k4.dimacs"
    k4.write_text("p edge 4 6\ne 1 2\ne 1 3\ne 1 4\ne 2 3\ne 2 4\ne 3 4\n")
    cert, tds_cert = tmp_path / "c.json", tmp_path / "t.json"
    b14 = tmp_path / "b14.dimacs"
    assert main(["gen", "random", "--n", "14", "--p", "0.3", "--seed", "2", "--out", str(b14)]) == 0
    assert main(["cdnumber", str(c5), "--cert-out", str(cert)]) == 0
    assert main(["tds", "--k", "3", str(c5), "--cert-out", str(tds_cert)]) == 0
    capsys.readouterr()
    out = str(tmp_path / "out.dimacs")
    # solver modules each command may load; None: only dataclasses is checked
    cases = [
        (["validate", c5, cert], set()),
        (["validate", c5, tds_cert], {"tds"}),
        (["cdnumber", c5], {"exact"}),
        (["cdnumber", "--girth5", c5], {"tds"}),
        (["tds", "--k", "3", c5, "--kernel-out", out], {"tds"}),
        (["gen", "random", "--n", "6", "--out", out], {"generate"}),
        (["cdnumber", "--split", c5], {"fpt", "partize", "split"}),
        (["recognize", "--q", "3", c5], {"fpt", "partize"}),
        (["partize", "--q", "3", "--k", "1", c5], {"fpt", "partize"}),
        (["partize", "--q", "4", "--k", "0", c5], None),
        (["partize", "--q", "4", "--k", "12", b14], {"fpt", "partize"}),
        (["partize", "--q", "4", "--k", "0", k4], {"exact", "fpt", "partize"}),  # the walk
        (["gen", "setcover", "--universe", "2", "--sets", "1;2", "--k", "1", "--out", out], None),
    ]
    bare = _loaded_after("")
    for argv, solvers in cases:
        argv = [str(a) for a in argv]
        loaded = _loaded_after(f"from cdcolor.cli import main\nmain({argv!r})")
        assert "dataclasses" not in loaded - bare, argv
        if solvers is not None:
            modules = {m.removeprefix("cdcolor.") for m in loaded if m.startswith("cdcolor.")}
            assert modules & SOLVERS == solvers, argv
