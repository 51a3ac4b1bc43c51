"""The cli-mix workload: ``cdcolor`` subprocesses over files it writes.

One pass runs every command below once, in order, each as its own
process timed from spawn to exit.  Every exit code and printed answer
is compared with an oracle value, and every certificate is re-checked
in this process with the package's validators (and once more by the
``validate`` subcommand).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import oracles
from workloads import oracle_args, planted_oct_base, random_bipartite


@dataclass
class Command:
    argv: List[str]  # arguments after ``cdcolor``
    rc: int  # expected exit code
    check: Optional[Callable[[str], Optional[str]]] = None  # stdout -> problem


def generate(cd, rng: random.Random, workdir: Path) -> dict:
    """Draw the graphs and write them as DIMACS files; return the graphs."""
    gen = cd.generate
    graphs = {
        "exact": gen.random_connected_graph(12, 0.3, rng),
        "split": gen.random_split_graph(14, rng, connected=True),
        "g5multi": gen.disjoint_union(
            *(gen.random_girth5_graph(14, rng, density=0.3, connected=True) for _ in range(3))
        ),
        "tds": gen.random_girth5_graph(20, rng, density=0.3, connected=True),
    }
    triangle = [(0, 1), (1, 2), (0, 2)]
    rec_no_base = gen.random_graph(8, 0.5, rng)
    rec_no_base = cd.graph.Graph.from_edges(8, set(rec_no_base.edges()) | set(triangle))
    oct_no_base = gen.random_graph(10, 0.5, rng)
    bases = {
        "rec_yes": (random_bipartite(cd, 8, 0.5, rng), 2, 2),
        "rec_no": (rec_no_base, 2, 2),
        "part_yes": (planted_oct_base(cd, 12, 2, rng), 2, 2),
        "part_no": (oct_no_base, 1, 2),
    }
    for name, (base, k, q_base) in bases.items():
        graphs[name] = cd.split.generate_from_partization(base, k, q_base).graph
        graphs[name + "_base"] = base
    workdir.mkdir(parents=True, exist_ok=True)
    for name, g in graphs.items():
        (workdir / f"{name}.dimacs").write_text(cd.graph.to_dimacs(g))
    tampered = {"q": 1, "classes": [list(range(1, graphs["exact"].n + 1))], "dominators": [1]}
    (workdir / "tampered.json").write_text(json.dumps(tampered))
    return graphs


def _cd_number_by_component(cd, g) -> int:
    total = 0
    for comp in cd.graph.connected_components(g):
        sub, _ = g.induced(comp)
        total += oracles.cd_number(*oracle_args(sub))
    return total


def _split_deletion_yes(g, q: int, k: int) -> bool:
    for size in range(k + 1):
        for combo in itertools.combinations(range(g.n), size):
            keep = g.full_mask & ~sum(1 << v for v in combo)
            sub, _ = g.induced(keep)
            if oracles.cd_number(*oracle_args(sub)) <= q:
                return True
    return False


def commands(cd, graphs: dict, workdir: Path, seed: int) -> List[Command]:
    """The pass, with every expected value taken from :mod:`oracles`."""

    def f(name: str) -> str:
        return str(workdir / name)

    def parsed(name: str):
        return cd.graph.parse_graph((workdir / f"{name}.dimacs").read_text(), "dimacs")

    def expect_line(prefix: str, then: Optional[Callable[[], Optional[str]]] = None):
        def check(stdout: str) -> Optional[str]:
            if not stdout.startswith(prefix):
                return f"printed {stdout.strip()[:80]!r}, expected {prefix!r}"
            return then() if then else None

        return check

    def cert(graph_name: str, cert_name: str, size: Optional[int] = None):
        def check() -> Optional[str]:
            return check_certificate(cd, parsed(graph_name), json.loads(Path(f(cert_name)).read_text()), size)

        return check

    q_exact = oracles.cd_number(*oracle_args(graphs["exact"]))
    q_split = oracles.cd_number(*oracle_args(graphs["split"]))
    q_g5 = _cd_number_by_component(cd, graphs["g5multi"])
    gamma = oracles.min_tds(*oracle_args(graphs["tds"]))
    rec_no_q = 1 + oracles.chromatic_number(*oracle_args(graphs["rec_no_base"]))
    part_no_yes = oracles.min_oct(*oracle_args(graphs["part_no_base"]), 1) is not None
    split_q = max(q_split - 1, 1)
    split_yes = _split_deletion_yes(graphs["split"], split_q, 2)

    def gen_random_ok() -> Optional[str]:
        g = parsed("gen_random")
        if g.n != 16 or len(cd.graph.connected_components(g)) != 1:
            return f"gen random wrote n={g.n} with {len(cd.graph.connected_components(g))} components"
        return None

    def gen_lift_ok() -> Optional[str]:
        side = json.loads(Path(f("gen_lift.dimacs.json")).read_text())
        if side.get("expected_yes") != part_no_yes:
            return f"gen lift sidecar says expected_yes={side.get('expected_yes')}, oracle {part_no_yes}"
        base = graphs["part_no_base"]
        if parsed("gen_lift").n != base.n + 6:  # hub plus k + q_base + 2 = 5 pendants
            return "gen lift wrote a graph of the wrong size"
        return None

    yes_no = {True: 0, False: 1}
    return [
        Command(["cdnumber", f("exact.dimacs"), "--cert-out", f("c_exact.json")], 0,
                expect_line(f"q={q_exact}\n", cert("exact", "c_exact.json"))),
        Command(["validate", f("exact.dimacs"), f("c_exact.json")], 0, expect_line("valid")),
        Command(["cdnumber", "--split", f("split.dimacs"), "--cert-out", f("c_split.json")], 0,
                expect_line(f"q={q_split}\n", cert("split", "c_split.json"))),
        Command(["validate", f("split.dimacs"), f("c_split.json")], 0, expect_line("valid")),
        Command(["cdnumber", "--girth5", f("g5multi.dimacs"), "--cert-out", f("c_g5.json")], 0,
                expect_line(f"q={q_g5}\n", cert("g5multi", "c_g5.json"))),
        Command(["validate", f("g5multi.dimacs"), f("c_g5.json")], 0, expect_line("valid")),
        Command(["recognize", "--q", "3", f("rec_yes.dimacs"), "--cert-out", f("c_rec.json")], 0,
                expect_line("q=3\n", cert("rec_yes", "c_rec.json"))),
        Command(["validate", f("rec_yes.dimacs"), f("c_rec.json")], 0, expect_line("valid")),
        Command(["recognize", "--q", "3", f("rec_no.dimacs")], yes_no[rec_no_q <= 3]),
        Command(["tds", "--k", str(gamma), f("tds.dimacs"), "--cert-out", f("c_tds.json")], 0,
                expect_line(f"size={gamma} ", cert("tds", "c_tds.json", gamma))),
        Command(["validate", f("tds.dimacs"), f("c_tds.json")], 0, expect_line("valid")),
        Command(["tds", "--k", str(gamma - 1), f("tds.dimacs")], 1),
        Command(["partize", "--q", "3", "--k", "2", f("part_yes.dimacs"), "--cert-out", f("c_part.json")], 0,
                expect_line("YES", cert("part_yes", "c_part.json"))),
        Command(["validate", f("part_yes.dimacs"), f("c_part.json")], 0, expect_line("valid")),
        Command(["partize", "--q", "3", "--k", "1", f("part_no.dimacs")], yes_no[part_no_yes]),
        Command(["partize", "--split", "--q", str(split_q), "--k", "2", f("split.dimacs")], yes_no[split_yes]),
        Command(["gen", "random", "--n", "16", "--p", "0.3", "--seed", str(seed), "--connected",
                 "--out", f("gen_random.dimacs")], 0, expect_line("wrote", gen_random_ok)),
        Command(["gen", "lift", f("part_no_base.dimacs"), "--base", "oct", "--k", "1",
                 "--out", f("gen_lift.dimacs")], 0, expect_line("wrote", gen_lift_ok)),
        Command(["validate", f("exact.dimacs"), f("tampered.json")], 2, expect_line("invalid")),
    ]


def check_certificate(cd, g, cert: dict, size: Optional[int] = None) -> Optional[str]:
    """Re-check a CLI certificate with the package's validators."""
    index = {g.label(v): v for v in range(g.n)}
    if "set" in cert:
        mask = sum(1 << index[x] for x in cert["set"])
        if mask.bit_count() != size or not cd.tds.is_total_dominating(g, mask):
            return f"tds certificate of size {mask.bit_count()} is not a total dominating set of size {size}"
        return None
    deleted = sum(1 << index[x] for x in cert.get("deleted", []))
    sub, _ = g.without(deleted)
    coloring = cd.coloring.CdColoring.from_payload(cert, sub)
    report = cd.coloring.validate_cd_coloring(sub, coloring)
    if not report.ok:
        return f"invalid certificate: {report.problem}"
    if cert.get("q") != coloring.q:
        return "certificate q differs from its class count"
    return None
