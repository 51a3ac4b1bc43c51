"""Command-line driver.

Subcommands: cdnumber, recognize, tds, partize, gen, validate.
Exit codes: 0 solved/YES/valid, 1 NO, 2 error, an internal one included.
All certificates are JSON using the input file's vertex labels; a fixed
seed reproduces generated instances byte for byte.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .bits import iter_bits, mask_of
from .coloring import CdColoring, label_reader, validate_cd_coloring
from .errors import CdColorError
from .graph import (
    MAX_VERTICES,
    Graph,
    detect_format,
    parse_graph,
    to_dimacs,
)

# Each handler imports the solver modules it calls, so a process loads
# only what its subcommand runs.


def _load_graph(path: str) -> Graph:
    text = Path(path).read_text()
    return parse_graph(text, detect_format(text))


def _dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _answer(args) -> int:
    """Run ``args.solve``, which returns (line, payload) with a None payload
    for a NO.  A YES writes ``--cert-out`` before anything is printed; a NO
    writes no certificate and exits 1."""
    line, payload = args.solve(args)
    if payload is None:
        if not args.json:
            print(line)
        return 1
    text = _dump_json(payload)
    if args.cert_out:
        Path(args.cert_out).write_text(text + "\n")
    print(text if args.json else line)
    return 0


def _cmd_cdnumber(args) -> tuple:
    if args.cap is not None:
        if args.brute or args.girth5 or args.split:
            raise CdColorError("--cap applies only to the exact engine")
        _require_non_negative(args, "cap")
    g = _load_graph(args.file)
    if args.brute:
        from .exact import cd_chromatic_bruteforce

        q, coloring = cd_chromatic_bruteforce(g)
    elif args.girth5:
        from .tds import cd_chromatic_girth5

        q, coloring = cd_chromatic_girth5(g)
    elif args.split:
        from .split import cd_chromatic_split

        q, coloring = cd_chromatic_split(g)
    else:
        from .exact import DEFAULT_EXACT_CAP, cd_chromatic_exact

        cap = DEFAULT_EXACT_CAP if args.cap is None else args.cap
        q, coloring = cd_chromatic_exact(g, cap=cap)
    return f"q={q}", coloring.to_payload(g)


def _cmd_recognize(args) -> tuple:
    from .partize import cd_recognize_upto3

    g = _load_graph(args.file)
    sol = cd_recognize_upto3(g)
    if sol is None or sol.coloring.q > args.q:
        return f"NO: cd-chromatic number exceeds {args.q}", None
    payload = sol.coloring.to_payload(g)
    payload["components"] = [
        {
            "type_id": w.type_id,
            "dominators": [g.label(d) for d in w.dominators],
            "vertices": g.label_list(mask_of(v for cls in w.coloring.classes for v in cls)),
        }
        for _, w in sol.plan
    ]
    return f"q={sol.coloring.q}", payload


def _require_non_negative(args, *names: str) -> None:
    for name in names:
        if getattr(args, name) < 0:
            raise CdColorError(f"--{name} must be non-negative")


def _cmd_tds(args) -> tuple:
    from .tds import _solve_kernelized, tds_kernelize

    _require_non_negative(args, "k")
    g = _load_graph(args.file)
    outcome = tds_kernelize(g, args.k)  # the kernel written is the one solved
    no = "NO"
    if args.kernel_out:
        if outcome.verdict == "REDUCED":
            kernel, ids = g.induced(outcome.keep)
            comments = ["kernel of the total domination instance"]
            comments += [f"map {new + 1} {g.label(old)}" for new, old in enumerate(ids)]
            comments += [f"forced {g.label(v)}" for v in iter_bits(outcome.forced)]
            Path(args.kernel_out).write_text(to_dimacs(kernel, comments))
        else:
            no = f"kernelization answered NO: {outcome.reason}\nNO"
    cert = _solve_kernelized(g, args.k, outcome)
    if cert is None:
        return no, None
    tds = g.label_list(cert.mask)
    return f"size={cert.size} set={tds}", {"size": cert.size, "set": tds}


def _cmd_partize(args) -> tuple:
    _require_non_negative(args, "q", "k")
    g = _load_graph(args.file)
    if args.split:
        from .split import split_partization

        sol = split_partization(g, args.k, args.q)
    else:
        from .partize import partization

        sol = partization(g, args.k, args.q)
    if sol is None:
        return "NO", None
    payload = sol.coloring.to_payload(g)
    payload["deleted"] = g.label_list(sol.deleted)
    payload["pattern"] = [name for name, _ in sol.plan]
    line = (
        f"YES deleted={payload['deleted']} "
        f"pattern={'+'.join(payload['pattern']) or 'Empty'} q={sol.coloring.q}"
    )
    return line, payload


def _parse_sets(text: str):
    try:
        return [{int(x) for x in chunk.split(",")} for chunk in text.split(";") if chunk.strip()]
    except ValueError:
        raise CdColorError(f"--sets {text!r} must be integer sets such as '1,2;2,3'") from None


def _cmd_gen(args) -> int:
    if args.kind == "setcover":
        _require_non_negative(args, "universe", "k")
        sets = _parse_sets(args.sets)
        if args.k > len(sets):
            raise CdColorError(f"--k {args.k} exceeds the {len(sets)} sets of --sets")
        stray = sorted(x for s in sets for x in s if not 1 <= x <= args.universe)
        if stray:
            raise CdColorError(
                f"--sets element {stray[0]} lies outside 1..{args.universe} (--universe)"
            )
        from .split import generate_from_setcover

        inst = generate_from_setcover(args.universe, sets, args.k)
    elif args.kind == "lift":
        _require_non_negative(args, "k")
        from .split import generate_from_partization

        g = _load_graph(args.file)
        inst = generate_from_partization(g, args.k, 1 if args.base == "vc" else 2)
    else:  # random
        _require_non_negative(args, "n")
        if args.n > MAX_VERTICES:
            raise CdColorError(f"--n {args.n} exceeds the limit of {MAX_VERTICES}")
        if not 0 <= args.p <= 1:
            raise CdColorError(f"--p {args.p} is not a probability in [0, 1]")
        import random

        from .generate import (
            random_connected_graph,
            random_girth5_graph,
            random_graph,
            random_split_graph,
        )

        rng = random.Random(args.seed)
        if args.girth5:
            g = random_girth5_graph(args.n, rng, density=args.p, connected=args.connected)
        elif args.split_graph:
            g = random_split_graph(args.n, rng, p=args.p, connected=args.connected)
        elif args.connected:
            g = random_connected_graph(args.n, args.p, rng)
        else:
            g = random_graph(args.n, args.p, rng)
        Path(args.out).write_text(to_dimacs(g, [f"seed {args.seed}"]))
        print(f"wrote {args.out}")
        return 0
    Path(args.out).write_text(to_dimacs(inst.graph, [f"source {inst.source}"]))
    sidecar = args.sidecar or args.out + ".json"
    Path(sidecar).write_text(
        _dump_json(
            {
                "source": inst.source,
                "k": inst.k,
                "q": inst.q,
                "expected_yes": inst.expected,
                "roles": inst.roles,
                "labels": [str(inst.graph.label(v)) for v in range(inst.graph.n)],
            }
        )
        + "\n"
    )
    print(f"wrote {args.out} (k={inst.k}, q={inst.q}), sidecar {sidecar}")
    return 0


def _certificate_problem(g: Graph, cert: dict) -> Optional[str]:
    """What makes ``cert`` invalid for ``g``, or None; a label list of the
    wrong shape or with an unknown label raises ValueError."""
    read = label_reader(g)
    if "set" in cert and "size" in cert:
        from .tds import is_total_dominating

        tds = mask_of(read(cert["set"]))
        if type(cert["size"]) is not int or cert["size"] != tds.bit_count():
            return "size field does not match the set"
        return None if is_total_dominating(g, tds) else "set is not total dominating"
    coloring = CdColoring.from_payload(cert, g)
    active = g.full_mask & ~mask_of(read(cert.get("deleted", [])))
    report = validate_cd_coloring(g, coloring, active)
    if not report.ok:
        return report.problem
    if type(cert.get("q")) is not int or cert["q"] != coloring.q:
        return "q field does not match the class count"
    return None


def _cmd_validate(args) -> int:
    g = _load_graph(args.file)
    cert = json.loads(Path(args.cert).read_text())
    if not isinstance(cert, dict):
        raise CdColorError("certificate must be a JSON object")
    try:
        problem = _certificate_problem(g, cert)
    except ValueError as exc:
        problem = str(exc)
    print("valid" if problem is None else f"invalid: {problem}")
    return 0 if problem is None else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdcolor",
        description="Exact and parameterized solvers for class-domination coloring",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    answer = argparse.ArgumentParser(add_help=False)
    answer.add_argument("file")
    answer.add_argument("--json", action="store_true")
    answer.add_argument("--cert-out")

    p = sub.add_parser("cdnumber", parents=[answer], help="cd-chromatic number with certificate")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exact", action="store_true", help="subset-table engine (default)")
    mode.add_argument("--girth5", action="store_true", help="total-domination fast path")
    mode.add_argument("--split", action="store_true", help="split-graph fast path")
    mode.add_argument("--brute", action="store_true", help="small-graph oracle")
    p.add_argument(
        "--cap", type=int, help="exact engine's vertex cap per component (default 26)"
    )
    p.set_defaults(func=_answer, solve=_cmd_cdnumber)

    p = sub.add_parser("recognize", parents=[answer], help="is the graph q-cd-colorable, q <= 3")
    p.add_argument("--q", type=int, choices=(1, 2, 3), required=True)
    p.set_defaults(func=_answer, solve=_cmd_recognize)

    p = sub.add_parser("tds", parents=[answer], help="total dominating set of size at most k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kernel-out", help="dump the reduced instance as DIMACS")
    p.set_defaults(func=_answer, solve=_cmd_tds)

    p = sub.add_parser("partize", parents=[answer], help="delete k vertices to reach q cd-colors")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--split", action="store_true", help="split-graph brancher")
    p.set_defaults(func=_answer, solve=_cmd_partize)

    p = sub.add_parser("gen", help="generate instances")
    gsub = p.add_subparsers(dest="kind", required=True)
    ps = gsub.add_parser("setcover", help="deletion instance from a set cover")
    ps.add_argument("--universe", type=int, required=True)
    ps.add_argument("--sets", required=True, help="semicolon-separated, e.g. '1,2;2,3'")
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--sidecar")
    pl = gsub.add_parser("lift", help="lift a vc/oct instance by one color")
    pl.add_argument("file")
    pl.add_argument("--base", choices=("vc", "oct"), required=True)
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--out", required=True)
    pl.add_argument("--sidecar")
    pr = gsub.add_parser("random", help="random graphs (plain, girth5, split)")
    pr.add_argument("--n", type=int, required=True)
    pr.add_argument("--p", type=float, default=0.5)
    pr.add_argument("--seed", type=int, default=0)
    shape = pr.add_mutually_exclusive_group()
    shape.add_argument("--girth5", action="store_true")
    shape.add_argument("--split", dest="split_graph", action="store_true")
    pr.add_argument("--connected", action="store_true")
    pr.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="check a certificate against a graph")
    p.add_argument("file")
    p.add_argument("cert")
    p.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Optional[list] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CdColorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # never exit 1, the NO code, on a crash
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
