import hashlib
import json
import random
import time

import pytest

from cdcolor import tds
from cdcolor.cli import main
from cdcolor.exact import DEFAULT_EXACT_CAP
from cdcolor.generate import complete_graph, cycle_graph, path_graph, petersen_graph
from cdcolor.graph import Graph, parse_graph, to_dimacs


def write_graph(tmp_path, name, g):
    labeled = Graph(g.n, g.adj, labels=tuple(range(1, g.n + 1)))
    path = tmp_path / name
    path.write_text(to_dimacs(labeled))
    return str(path)


@pytest.fixture
def c5(tmp_path):
    return write_graph(tmp_path, "c5.dimacs", cycle_graph(5))


@pytest.fixture
def k5(tmp_path):
    return write_graph(tmp_path, "k5.dimacs", complete_graph(5))


def test_cdnumber_exact_with_certificate(c5, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["cdnumber", "--exact", c5, "--cert-out", str(cert)]) == 0
    assert capsys.readouterr().out.strip() == "q=3"
    payload = json.loads(cert.read_text())
    assert payload["q"] == 3
    assert main(["validate", c5, str(cert)]) == 0


def test_cdnumber_modes_agree(c5, capsys):
    for flag in ("--exact", "--girth5", "--brute"):
        assert main(["cdnumber", flag, c5]) == 0
        assert capsys.readouterr().out.strip() == "q=3"


def test_cdnumber_split_mode(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.dimacs", complete_graph(4))
    assert main(["cdnumber", "--split", path]) == 0
    assert capsys.readouterr().out.strip() == "q=4"


def test_cdnumber_capacity_flag(c5, capsys):
    assert main(["cdnumber", "--exact", "--cap", "4", c5]) == 2



def test_cdnumber_cap_defaults_to_the_engine_cap(c5, tmp_path, capsys):
    assert DEFAULT_EXACT_CAP == 26
    p27 = write_graph(tmp_path, "p27.dimacs", path_graph(27))
    assert main(["cdnumber", p27]) == 2
    assert "exact solver capacity is 26 vertices, got 27" in capsys.readouterr().err
    p28 = write_graph(tmp_path, "p28.dimacs", path_graph(28))
    assert main(["cdnumber", "--cap", "27", p28]) == 2
    assert "exact solver capacity is 27 vertices, got 28" in capsys.readouterr().err
    assert main(["cdnumber", "--cap", "27", c5]) == 0
    assert capsys.readouterr().out == "q=3\n"
    assert main(["cdnumber", "--help"]) == 0
    assert f"(default {DEFAULT_EXACT_CAP})" in " ".join(capsys.readouterr().out.split())

def test_cdnumber_girth5_requires_girth(tmp_path, capsys):
    path = write_graph(tmp_path, "c4.dimacs", cycle_graph(4))
    assert main(["cdnumber", "--girth5", path]) == 2


def test_recognize(c5, k5, capsys, tmp_path):
    assert main(["recognize", "--q", "3", c5]) == 0
    assert capsys.readouterr().out.strip() == "q=3"
    assert main(["recognize", "--q", "2", c5]) == 1
    cert = tmp_path / "rec.json"
    assert main(["recognize", "--q", "3", c5, "--cert-out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert payload["components"][0]["type_id"] in range(6)
    assert main(["validate", c5, str(cert)]) == 0


def test_tds_and_kernel_dump(c5, tmp_path, capsys):
    kern = tmp_path / "kernel.dimacs"
    cert = tmp_path / "tds.json"
    code = main(
        ["tds", "--k", "3", c5, "--kernel-out", str(kern), "--cert-out", str(cert)]
    )
    assert code == 0
    assert "size=3" in capsys.readouterr().out
    text = kern.read_text()
    parsed = parse_graph(text, "dimacs")
    assert parsed.n == 5
    assert any(line.startswith("c map 1 ") for line in text.splitlines())
    assert main(["validate", c5, str(cert)]) == 0
    assert main(["tds", "--k", "2", c5]) == 1


def test_partize_exit_codes(c5, k5, tmp_path, capsys):
    assert main(["partize", "--q", "3", "--k", "1", k5]) == 1
    capsys.readouterr()
    cert = tmp_path / "del.json"
    assert main(["partize", "--q", "3", "--k", "2", k5, "--cert-out", str(cert)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("YES")
    payload = json.loads(cert.read_text())
    assert len(payload["deleted"]) <= 2
    assert main(["validate", k5, str(cert)]) == 0
    assert main(["partize", "--q", "2", "--k", "1", c5]) == 0


def test_partize_split_and_exact_routes(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.dimacs", complete_graph(4))
    assert main(["partize", "--q", "3", "--k", "1", "--split", path]) == 0
    capsys.readouterr()
    # q >= 4 ends in the exact walk, which names its route and warns of nothing
    cert = tmp_path / "k4.json"
    assert main(["partize", "--q", "4", "--k", "0", path, "--cert-out", str(cert)]) == 0
    assert capsys.readouterr() == ("YES deleted=[] pattern=Exact q=4\n", "")
    assert json.loads(cert.read_text())["pattern"] == ["Exact"]
    b14 = str(tmp_path / "b14.dimacs")
    gen = ["gen", "random", "--n", "14", "--p", "0.3", "--seed", "5", "--out", b14]
    assert main(gen) == 0
    capsys.readouterr()
    assert main(["partize", "--q", "4", "--k", "2", b14, "--cert-out", str(cert)]) == 0
    assert capsys.readouterr() == ("YES deleted=[6] pattern=Exact q=4\n", "")
    assert main(["validate", b14, str(cert)]) == 0
    assert capsys.readouterr() == ("valid\n", "")


def test_partize_q_4_walk_budget_exits_2_with_its_name(tmp_path, capsys):
    path = str(tmp_path / "b24.dimacs")
    gen = ["gen", "random", "--n", "24", "--p", "0.3", "--seed", "1", "--out", path]
    assert main(gen) == 0
    capsys.readouterr()
    assert main(["partize", "--q", "4", "--k", "3", path]) == 2
    assert capsys.readouterr() == (
        "", "error: q >= 4 deletion walk exceeds EXACT_WALK_BUDGET=17179869184\n"
    )



def test_partize_q_4_bounds_answer_no_past_the_oracle_cap(tmp_path, capsys):
    # 39 kept vertices exceed 4 * max(Δ, 1) = 8, so the walk never runs
    path = tmp_path / "p40.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 40)))
    assert main(["partize", "--q", "4", "--k", "1", str(path)]) == 1
    assert capsys.readouterr() == ("NO\n", "")

def test_partize_q_4_takes_the_3_color_route_past_the_oracle_cap(tmp_path, capsys):
    # 14 vertices, and 3 <= q colors suffice once 11 of them go: the
    # small-remainder closed form answers before the walk
    path = str(tmp_path / "b.dimacs")
    gen = ["gen", "random", "--n", "14", "--p", "0.3", "--seed", "2", "--out", path]
    assert main(gen) == 0
    capsys.readouterr()
    line = (
        "YES deleted=[4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14] "
        "pattern=IsolatedVertex+IsolatedVertex+IsolatedVertex q=3\n"
    )
    for q in (3, 4, 5):
        assert main(["partize", "--q", str(q), "--k", "12", path]) == 0
        assert capsys.readouterr() == (line, "")
    empty = tmp_path / "e.dimacs"
    empty.write_text("p edge 0 0\n")
    assert main(["partize", "--q", "5", "--k", "0", str(empty)]) == 0
    assert capsys.readouterr() == ("YES deleted=[] pattern=Empty q=0\n", "")


def test_partize_q_at_most_1_is_a_closed_form(tmp_path, capsys):
    # 14 vertices: beyond the brute-force oracle's cap
    path = str(tmp_path / "b.dimacs")
    cert = tmp_path / "one.json"
    gen = ["gen", "random", "--n", "14", "--p", "0.3", "--seed", "2", "--out", path]
    assert main(gen) == 0
    capsys.readouterr()
    assert main(["partize", "--q", "1", "--k", "13", path, "--cert-out", str(cert)]) == 0
    out, err = capsys.readouterr()
    assert out == f"YES deleted={list(range(2, 15))} pattern=IsolatedVertex q=1\n"
    assert err == ""
    assert main(["validate", path, str(cert)]) == 0
    assert main(["partize", "--q", "0", "--k", "14", path]) == 0
    for q, k in ((1, 12), (0, 13)):
        assert main(["partize", "--q", str(q), "--k", str(k), path]) == 1
    assert capsys.readouterr().err == ""
    assert main(["partize", "--q", "-1", "--k", "14", path]) == 2
    assert "--q must be non-negative" in capsys.readouterr().err


def test_validate_reports_unknown_labels_as_invalid(tmp_path, capsys):
    path = str(tmp_path / "g.dimacs")
    cert = tmp_path / "p.json"
    assert main(["gen", "random", "--n", "8", "--seed", "1", "--out", path]) == 0
    assert main(["partize", "--q", "3", "--k", "1", path, "--cert-out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    capsys.readouterr()
    for tampered in (
        dict(payload, deleted=payload["deleted"] + [99]),
        dict(payload, classes=[payload["classes"][0] + [99]] + payload["classes"][1:]),
        {"size": 2, "set": [1, 99]},
    ):
        cert.write_text(json.dumps(tampered))
        assert main(["validate", path, str(cert)]) == 2
        assert capsys.readouterr() == (
            "invalid: certificate references unknown vertex 99\n",
            "",
        )


def test_validate_matches_labels_by_type(tmp_path, capsys):
    path = str(tmp_path / "g.dimacs")
    cert = tmp_path / "t.json"
    assert main(["gen", "random", "--n", "8", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    labels = list(range(1, 9))
    for i, value, shown in ((0, True, "True"), (7, 8.0, "8.0"), (0, "1", "'1'")):
        tampered = labels[:i] + [value] + labels[i + 1 :]
        cert.write_text(json.dumps({"size": 8, "set": tampered}))
        assert main(["validate", path, str(cert)]) == 2
        assert capsys.readouterr() == (
            f"invalid: certificate references unknown vertex {shown}\n",
            "",
        )
    cert.write_text(json.dumps({"size": 8, "set": labels}))
    assert main(["validate", path, str(cert)]) == 0
    assert capsys.readouterr().out == "valid\n"


WRONG_SHAPE = (
    "invalid: certificate has the wrong shape: set, deleted, dominators "
    "and each class must be lists of vertex labels\n"
)


def test_validate_reports_wrong_shapes_as_invalid(tmp_path, capsys):
    path = str(tmp_path / "g.dimacs")
    cert = tmp_path / "bad.json"
    assert main(["gen", "random", "--n", "8", "--seed", "1", "--out", path]) == 0
    capsys.readouterr()
    for bad in (
        {"size": 1, "set": [[1]]},
        {"q": 1, "classes": 5, "dominators": [1]},
        {"q": 1, "classes": [[1]], "dominators": 3},
    ):
        cert.write_text(json.dumps(bad))
        assert main(["validate", path, str(cert)]) == 2
        assert capsys.readouterr() == (WRONG_SHAPE, "")


def test_validate_names_a_missing_coloring_field(c5, tmp_path, capsys):
    cert = tmp_path / "partial.json"
    for payload, field in (({"q": 1, "classes": [[1]]}, "dominators"), ({"set": [1]}, "classes")):
        cert.write_text(json.dumps(payload))
        assert main(["validate", c5, str(cert)]) == 2
        assert capsys.readouterr() == (f"invalid: certificate has no {field!r} field\n", "")


def random_json(rng, depth=0):
    kind = rng.randrange(8 if depth < 2 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.randint(-2, 10)
    if kind == 3:
        return rng.uniform(0, 9)
    if kind == 4:
        return rng.choice(["", "1", "x", "classes"])
    if kind == 5:
        return rng.randint(1, 8)
    if kind == 6:
        return [random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    keys = ("q", "size", "set", "classes", "dominators", "deleted")
    return {rng.choice(keys): random_json(rng, depth + 1) for _ in range(rng.randint(0, 3))}


def test_validate_survives_malformed_shapes(tmp_path, capsys):
    path = str(tmp_path / "g.dimacs")
    cert = tmp_path / "c.json"
    assert main(["gen", "random", "--n", "8", "--seed", "1", "--out", path]) == 0
    bases = [{"size": 8, "set": list(range(1, 9))}]
    for cmd in (["cdnumber"], ["partize", "--q", "3", "--k", "1"]):
        assert main(cmd + [path, "--cert-out", str(cert)]) == 0
        bases.append(json.loads(cert.read_text()))
    capsys.readouterr()
    rng = random.Random(83)
    codes = set()
    for _ in range(400):
        payload = dict(rng.choice(bases))
        for _ in range(rng.randint(1, 2)):
            key = rng.choice(sorted(payload) + ["classes", "deleted", "set"])
            if rng.random() < 0.2:
                payload.pop(key, None)
            elif isinstance(payload.get(key), list) and payload[key] and rng.random() < 0.5:
                items = list(payload[key])
                items[rng.randrange(len(items))] = random_json(rng, 1)
                payload[key] = items
            else:
                payload[key] = random_json(rng)
        cert.write_text(json.dumps(payload))
        code = main(["validate", path, str(cert)])
        out, err = capsys.readouterr()
        assert code in (0, 2), payload
        if code == 2:
            assert out.startswith("invalid: ") or err.startswith("error: "), payload
        codes.add(code)
    assert codes == {0, 2}


def test_validate_rejects_tampered_certificate(c5, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["cdnumber", c5, "--cert-out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    payload["classes"][0], payload["classes"][1] = (
        payload["classes"][1],
        payload["classes"][0],
    )
    cert.write_text(json.dumps(payload))
    assert main(["validate", c5, str(cert)]) == 2
    out = capsys.readouterr().out
    assert "invalid" in out


def test_validate_requires_integer_counts(tmp_path, capsys):
    # a count must be a JSON integer: 2.0 == 2 and true == 1 in Python
    k1, k2 = tmp_path / "k1.dimacs", tmp_path / "k2.dimacs"
    k1.write_text("p edge 1 0\n")
    k2.write_text("p edge 2 1\ne 1 2\n")
    cert = tmp_path / "cert.json"
    size_problem = "invalid: size field does not match the set\n"
    q_problem = "invalid: q field does not match the class count\n"
    cases = [
        (k2, {"size": 2, "set": [1, 2]}, "size", size_problem),
        (k2, {"q": 2, "classes": [[1], [2]], "dominators": [1, 2]}, "q", q_problem),
        (k1, {"q": 1, "classes": [[1]], "dominators": [1]}, "q", q_problem),
    ]
    for graph, payload, field, problem in cases:
        cert.write_text(json.dumps(payload))
        assert main(["validate", str(graph), str(cert)]) == 0
        assert capsys.readouterr().out == "valid\n"
        count = payload[field]
        for tampered in (float(count), True, str(count)):
            cert.write_text(json.dumps(dict(payload, **{field: tampered})))
            assert main(["validate", str(graph), str(cert)]) == 2, tampered
            assert capsys.readouterr().out == problem


def test_validate_rejects_coloring_of_deleted_vertex(c5, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["partize", "--q", "2", "--k", "1", c5, "--cert-out", str(cert)]) == 0
    assert main(["validate", c5, str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert payload["deleted"]
    payload["classes"][0].append(payload["deleted"][0])
    cert.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", c5, str(cert)]) == 2
    out = capsys.readouterr().out
    assert "invalid" in out and "inactive vertex" in out


def test_validate_names_vertices_by_label(tmp_path, capsys):
    path = str(tmp_path / "g.dimacs")
    cert = tmp_path / "p.json"
    assert main(["gen", "random", "--n", "8", "--seed", "1", "--out", path]) == 0
    assert main(["partize", "--q", "3", "--k", "1", path, "--cert-out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert payload["dominators"] == [6, 4, 5] and payload["deleted"] == [7]
    classes = payload["classes"]
    swapped = dict(payload, classes=[classes[1], classes[0]] + classes[2:])
    grown = dict(payload, classes=[classes[0] + [7]] + classes[1:])
    capsys.readouterr()
    for tampered, problem in (
        (swapped, "class 0 is not dominated by vertex 6"),
        (grown, "class 0 colors inactive vertex 7"),
    ):
        cert.write_text(json.dumps(tampered))
        assert main(["validate", path, str(cert)]) == 2
        assert capsys.readouterr().out == f"invalid: {problem}\n"


def test_validate_checks_tds_certificates(c5, tmp_path):
    cert = tmp_path / "tds.json"
    cert.write_text(json.dumps({"size": 2, "set": [1, 2]}))
    assert main(["validate", c5, cert.as_posix()]) == 2
    cert.write_text(json.dumps({"size": 3, "set": [1, 2, 3]}))
    assert main(["validate", c5, cert.as_posix()]) == 0


def test_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.dimacs"
    bad.write_text("p edge 2 1\ne 1 5\n")
    assert main(["cdnumber", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err
    assert main(["cdnumber", str(tmp_path / "missing.dimacs")]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["partize", "--q", "3", str(bad)]) == 2  # missing --k


@pytest.mark.parametrize(
    "crash", [RecursionError("too deep"), AssertionError("broken"), MemoryError("full")]
)
def test_internal_errors_exit_2_not_the_no_code(c5, monkeypatch, capsys, crash):
    def solver(g):
        raise crash

    monkeypatch.setattr(tds, "cd_chromatic_girth5", solver)
    assert main(["cdnumber", "--girth5", c5]) == 2
    err = capsys.readouterr().err
    assert err == f"error: internal error: {type(crash).__name__}: {crash}\n"


def test_girth5_search_budget_exits_2_with_its_name(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(tds, "TDS_SEARCH_BUDGET", 5)
    path = write_graph(tmp_path, "petersen.dimacs", petersen_graph())
    for argv in (["cdnumber", "--girth5", path], ["tds", "--k", "4", path]):
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: girth-5 search exceeded TDS_SEARCH_BUDGET=5 ")


def test_huge_vertex_name_exits_2_fast(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("1 2\n2 5000000\n")
    start = time.perf_counter()
    assert main(["cdnumber", str(path)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "vertex count 5000000 exceeds the limit" in capsys.readouterr().err


def test_gen_random_deterministic(tmp_path):
    out1 = tmp_path / "a.dimacs"
    out2 = tmp_path / "b.dimacs"
    args = ["gen", "random", "--n", "12", "--p", "0.4", "--seed", "99"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    diff = tmp_path / "c.dimacs"
    assert main(["gen", "random", "--n", "12", "--p", "0.4", "--seed", "98", "--out", str(diff)]) == 0
    assert diff.read_bytes() != out1.read_bytes()


def test_gen_variants_parse(tmp_path):
    for extra in (["--girth5"], ["--split"], ["--connected"]):
        out = tmp_path / "g.dimacs"
        assert main(
            ["gen", "random", "--n", "10", "--p", "0.5", "--seed", "3", "--out", str(out)]
            + extra
        ) == 0
        parse_graph(out.read_text(), "dimacs")


def test_gen_random_split_empty_graph(tmp_path, capsys):
    out = tmp_path / "e.dimacs"
    assert main(["gen", "random", "--split", "--n", "0", "--out", str(out)]) == 0
    assert out.read_text() == "c seed 0\np edge 0 0\n"
    capsys.readouterr()
    assert main(["cdnumber", "--split", str(out)]) == 0
    assert capsys.readouterr().out == "q=0\n"


def test_gen_setcover_and_lift(tmp_path, c5):
    out = tmp_path / "sc.dimacs"
    side = tmp_path / "sc.json"
    assert main(
        [
            "gen", "setcover", "--universe", "2", "--sets", "1;2;1,2",
            "--k", "1", "--out", str(out), "--sidecar", str(side),
        ]
    ) == 0
    payload = json.loads(side.read_text())
    assert payload["expected_yes"] is True and payload["q"] == 2
    g = parse_graph(out.read_text(), "dimacs")
    assert g.n == len(payload["labels"])

    out2 = tmp_path / "lift.dimacs"
    assert main(
        ["gen", "lift", c5, "--base", "oct", "--k", "1", "--out", str(out2)]
    ) == 0
    payload = json.loads((tmp_path / "lift.dimacs.json").read_text())
    assert payload["expected_yes"] is True and payload["q"] == 3


def test_gen_rejects_negative_k(tmp_path, c5, capsys):
    out = tmp_path / "n.dimacs"
    setcover = ["setcover", "--universe", "3", "--sets", "1,2;2,3", "--k", "-1"]
    lift = ["lift", c5, "--base", "oct", "--k", "-2"]
    for args in (setcover, lift):
        assert main(["gen", *args, "--out", str(out)]) == 2
        assert "k must" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "n.dimacs.json").exists()


def test_gen_names_the_flag_it_refuses(tmp_path, capsys):
    out = tmp_path / "bad.dimacs"
    cases = [
        (["random", "--n", "-1"], "--n must be non-negative"),
        (["setcover", "--universe", "3", "--sets", "1,x", "--k", "1"], "--sets '1,x'"),
    ]
    for args, reason in cases:
        assert main(["gen", *args, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and reason in captured.err
        assert not out.exists()


def test_gen_setcover_and_lift_refuse_more_than_max_vertices(tmp_path, c5, capsys):
    out = tmp_path / "big.dimacs"
    setcover = ["setcover", "--universe", "70000", "--sets", "1", "--k", "1"]
    lift = ["lift", c5, "--base", "vc", "--k", "100000000"]
    for args, count in ((setcover, 70005), (lift, 100000009)):
        start = time.perf_counter()
        assert main(["gen", *args, "--out", str(out)]) == 2
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"vertex count {count} exceeds the limit of 65536" in captured.err
        assert not out.exists() and not (tmp_path / "big.dimacs.json").exists()


def test_validate_refuses_a_certificate_that_is_no_json_object(c5, tmp_path, capsys):
    cert = tmp_path / "list.json"
    cert.write_text("[]\n")
    assert main(["validate", c5, str(cert)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "certificate must be a JSON object" in captured.err


def test_negative_parameters_exit_2_with_a_named_reason(c5, tmp_path, capsys):
    kernel = tmp_path / "kernel.dimacs"
    cases = [
        (["partize", "--q", "-1", "--k", "1", c5], "--q must be non-negative"),
        (["partize", "--q", "3", "--k", "-1", c5], "--k must be non-negative"),
        (["partize", "--split", "--q", "-1", "--k", "1", c5], "--q must be non-negative"),
        (["tds", "--k", "-1", c5], "--k must be non-negative"),
        (["tds", "--k", "-1", c5, "--kernel-out", str(kernel)], "--k must be non-negative"),
        # refused before the graph is read: the file does not exist
        (["cdnumber", "--cap", "-1", str(tmp_path / "absent.txt")], "--cap must be non-negative"),
    ]
    for argv, reason in cases:
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and reason in captured.err, argv
    assert not kernel.exists()


def test_gen_random_refuses_girth5_with_split(tmp_path, capsys):
    out = tmp_path / "g.dimacs"
    argv = ["gen", "random", "--n", "5", "--girth5", "--split", "--out", str(out)]
    assert main(argv) == 2
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


def test_gen_random_rejects_n_above_the_vertex_limit(tmp_path, capsys):
    out = tmp_path / "big.dimacs"
    start = time.perf_counter()
    assert main(["gen", "random", "--n", "70000", "--p", "0", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "exceeds the limit of 65536" in capsys.readouterr().err
    assert not out.exists()


# SHA-256 of "<exit code>\n<stdout>" of `partize --split --json` over
# q = 0..4 and k in (0, 1, 2, 3, 5) on `gen random --split --p 0.4`
# graphs, keyed by (n, seed); taken when the remainder was colored on a
# relabeled copy.
SPLIT_PARTIZE_DIGESTS = {
    (6, 1): "9e918d1f683f8f4c430775f4190506c6d3421318b6ce1fabe315ca34a90c4d6b",
    (9, 2): "cc909e886c55fd5baf652befae4857e30f1e4c41d1cb96f65dd075374e10d8b7",
    (12, 3): "f73158101a5fcd2f0e55456469c5121d6e91dafb14b93e890d14d842f16d8f7d",
    (14, 4): "8987c9ce4e6d552308308fcb909d75670fe9c2224700efa251762fed0a2115cf",
    (16, 5): "4a27ffc0bcc5711820f1c2a69f4dd095887513f04aea11583d0d57625ec0e3cd",
}


@pytest.mark.parametrize("n, seed", sorted(SPLIT_PARTIZE_DIGESTS))
def test_partize_split_json_is_pinned(n, seed, tmp_path, capsys):
    path = str(tmp_path / "s.dimacs")
    gen = ["gen", "random", "--split", "--n", str(n), "--p", "0.4", "--seed", str(seed)]
    assert main(gen + ["--out", path]) == 0
    capsys.readouterr()
    runs = []
    for q in range(5):
        for k in (0, 1, 2, 3, 5):
            code = main(["partize", "--split", "--json", "--q", str(q), "--k", str(k), path])
            runs.append(f"{code}\n{capsys.readouterr().out}")
    digest = hashlib.sha256("".join(runs).encode()).hexdigest()
    assert digest == SPLIT_PARTIZE_DIGESTS[n, seed]


RECOGNIZE_DIGESTS = {
    ("random", 1, "0.5"):
        "9b95e7063998db12b64608b12da6c7853aabefa4adf3b21c886a1e13038121b3",
    ("random", 3, "0.6"):
        "801e0df5375f85baa370c15728096c21d37bf8708f0185d2c5e0baf7c88f79f0",
    ("random", 5, "0.3"):
        "a0f2c50a57248b64e4c8418b09740da4abee314a633d3169a941e47971731680",
    ("random", 8, "0.2"):
        "a5b0ba563ba45299874a16a466ab8148e1d0514db323a8c41bcb445786e04f11",
    ("random", 9, "0.4"):
        "54e5b5d1b7628b606a59798282cd99f7c99d42debfa2675cc7342a84e192d39b",
    ("random", 12, "0.35"):
        "0f1473012a78bd2b496394cef70a6202ce186a6d8902815d24cde5dc9dfaf32a",
    ("lift", 5, "0.3"):
        "e0ee7b20496e9ae3721793f4e4c4d084051668567ee7628e0310b1d5db0be6fa",
    ("lift", 7, "0.25"):
        "979221cc730d86f475402921a16d3f08575e91567aba31f2cca9430c50d0e2bf",
    ("lift", 9, "0.2"):
        "548e9fb693589fd96262d59cc86f4a724475f0a600ce24798c2cb9c023828b71",
    ("lift", 11, "0.2"):
        "228e4f29346456ddac62231cb0e68579aa4df3ee4eb8b369826c1c40c694bb5b",
}


@pytest.mark.parametrize("kind, n, p", sorted(RECOGNIZE_DIGESTS))
def test_recognize_json_is_pinned(kind, n, p, tmp_path, capsys):
    """``recognize --json --q {1,2,3}`` on 20 draws each, disconnected ones
    included; a lift puts a hub with pendants over the draw."""
    path = str(tmp_path / "r.dimacs")
    runs = []
    for seed in range(20):
        gen = ["gen", "random", "--n", str(n), "--p", p, "--seed", str(seed)]
        assert main(gen + ["--out", path]) == 0
        if kind == "lift":
            base = ("vc", "oct")[seed % 2]
            assert main(["gen", "lift", path, "--base", base, "--k", "1", "--out", path]) == 0
        capsys.readouterr()
        for q in (1, 2, 3):
            code = main(["recognize", "--json", "--q", str(q), path])
            runs.append(f"{code}\n{capsys.readouterr().out}")
    digest = hashlib.sha256("".join(runs).encode()).hexdigest()
    assert digest == RECOGNIZE_DIGESTS[kind, n, p]


def test_certificates_byte_identical_across_runs(c5, k5, tmp_path):
    pairs = [
        (["cdnumber", "--exact"], c5),
        (["cdnumber", "--girth5"], c5),
        (["recognize", "--q", "3"], c5),
        (["tds", "--k", "3"], c5),
        (["partize", "--q", "3", "--k", "2"], k5),
    ]
    for base, path in pairs:
        c1 = tmp_path / "one.json"
        c2 = tmp_path / "two.json"
        assert main(base + [path, "--cert-out", str(c1)]) == 0
        assert main(base + [path, "--cert-out", str(c2)]) == 0
        assert c1.read_bytes() == c2.read_bytes()


def test_petersen_through_cli(tmp_path, capsys):
    path = write_graph(tmp_path, "pet.dimacs", petersen_graph())
    assert main(["cdnumber", "--girth5", path]) == 0
    assert capsys.readouterr().out.strip() == "q=4"


def test_edgelist_autodetected(tmp_path, capsys):
    path = tmp_path / "c4.edges"
    path.write_text("1 2\n2 3\n3 4\n4 1\n")
    assert main(["cdnumber", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "q=2"


def test_empty_graph_has_cd_number_zero_on_every_route(tmp_path, capsys):
    path = tmp_path / "empty.dimacs"
    path.write_text("p edge 0 0\n")
    cert = tmp_path / "cert.json"
    for flags in ([], ["--brute"], ["--split"], ["--girth5"]):
        assert main(["cdnumber", *flags, str(path), "--cert-out", str(cert)]) == 0
        assert capsys.readouterr().out.strip() == "q=0"
        assert main(["validate", str(path), str(cert)]) == 0
        assert capsys.readouterr().out.strip() == "valid"


def test_empty_graph_has_the_empty_total_dominating_set(tmp_path, capsys):
    path = tmp_path / "empty.dimacs"
    path.write_text("p edge 0 0\n")
    for k in ("0", "1", "2"):
        assert main(["tds", "--k", k, str(path)]) == 0
        assert capsys.readouterr().out == "size=0 set=[]\n"


def test_kernel_dump_with_k_zero(tmp_path, c5, capsys):
    empty = tmp_path / "empty.dimacs"
    empty.write_text("p edge 0 0\n")
    kern = tmp_path / "kernel.dimacs"
    assert main(["tds", "--k", "0", str(empty), "--kernel-out", str(kern)]) == 0
    assert capsys.readouterr().out == "size=0 set=[]\n"
    assert parse_graph(kern.read_text(), "dimacs").n == 0
    kern.unlink()
    assert main(["tds", "--k", "0", c5, "--kernel-out", str(kern)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("kernelization answered NO: ") and out.endswith("\nNO\n")
    assert not kern.exists()



def test_kernel_dump_kernelizes_once(tmp_path, capsys, monkeypatch):
    calls = []
    kernelize = tds.tds_kernelize

    def counting(g, k):
        calls.append(k)
        return kernelize(g, k)

    monkeypatch.setattr(tds, "tds_kernelize", counting)
    hub = tmp_path / "hub.txt"
    hub.write_text("1 2\n1 3\n1 4\n1 5\n1 6\n6 7\n7 8\n8 9\n9 10\n")
    kern = tmp_path / "hub.dimacs"
    assert main(["tds", "--k", "4", str(hub), "--kernel-out", str(kern)]) == 0
    assert capsys.readouterr().out == "size=4 set=[1, 6, 8, 9]\n"
    assert calls == [4]
    digest = hashlib.sha256(kern.read_bytes()).hexdigest()
    assert digest == "92e8deee837de24cb5d0de9c55868b5c6d51dcda394ca0678f8382a800f6bc9e"
    assert main(["tds", "--k", "4", str(hub)]) == 0  # the same single path without the file
    assert capsys.readouterr().out == "size=4 set=[1, 6, 8, 9]\n"
    assert calls == [4, 4]


@pytest.mark.parametrize("p", ["1.5", "-0.1", "nan", "inf"])
def test_gen_random_rejects_p_outside_the_unit_interval(tmp_path, capsys, p):
    out = tmp_path / "g.dimacs"
    for extra in ([], ["--girth5"], ["--split"], ["--connected"]):
        assert main(["gen", "random", "--n", "5", "--p", p, "--out", str(out), *extra]) == 2
        assert "is not a probability in [0, 1]" in capsys.readouterr().err
        assert not out.exists()


def test_single_vertex_paths(tmp_path, capsys):
    path = tmp_path / "k1.dimacs"
    path.write_text("p edge 1 0\n")
    assert main(["cdnumber", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "q=1"
    assert main(["recognize", "--q", "1", str(path)]) == 0
    assert main(["partize", "--q", "2", "--k", "0", str(path)]) == 0
    assert main(["cdnumber", "--split", str(path)]) == 0
    assert main(["cdnumber", "--girth5", str(path)]) == 0


YES_CASES = {
    "cdnumber": ["cdnumber"],
    "recognize": ["recognize", "--q", "3"],
    "tds": ["tds", "--k", "3"],
    "partize": ["partize", "--q", "2", "--k", "1"],
}
NO_CASES = {
    "recognize": (["recognize", "--q", "2"], "NO: cd-chromatic number exceeds 2\n"),
    "tds": (["tds", "--k", "2"], "NO\n"),
    "partize": (["partize", "--q", "1", "--k", "0"], "NO\n"),
}


@pytest.mark.parametrize("command", sorted(YES_CASES))
def test_json_yes_prints_exactly_the_certificate_file(command, c5, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(YES_CASES[command] + [c5, "--json", "--cert-out", str(cert)]) == 0
    assert capsys.readouterr() == (cert.read_text(), "")
    assert main(["validate", c5, str(cert)]) == 0


@pytest.mark.parametrize("command", sorted(NO_CASES))
def test_no_writes_no_certificate_and_one_line_at_most(command, c5, tmp_path, capsys):
    argv, line = NO_CASES[command]
    cert = tmp_path / "cert.json"
    assert main(argv + [c5, "--cert-out", str(cert)]) == 1
    assert capsys.readouterr() == (line, "")
    assert main(argv + [c5, "--json", "--cert-out", str(cert)]) == 1
    assert capsys.readouterr() == ("", "")
    assert not cert.exists()


@pytest.mark.parametrize("route", ["--girth5", "--split", "--brute"])
def test_cap_applies_only_to_the_exact_engine(route, tmp_path, capsys):
    # refused before the graph is read: the file does not exist
    absent = str(tmp_path / "absent.txt")
    for cap in ("1", "30", "-1"):
        assert main(["cdnumber", route, "--cap", cap, absent]) == 2
        assert capsys.readouterr() == ("", "error: --cap applies only to the exact engine\n")


def test_a_failed_certificate_write_prints_nothing(c5, tmp_path, capsys):
    missing = str(tmp_path / "missing" / "cert.json")
    for extra in ([], ["--json"]):
        assert main(["cdnumber", c5, "--cert-out", missing, *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and "cert.json" in err


def test_kernel_no_under_json_prints_nothing(c5, tmp_path, capsys):
    kern = tmp_path / "kernel.dimacs"
    argv = ["tds", "--k", "0", c5, "--kernel-out", str(kern)]
    assert main(argv + ["--json"]) == 1
    assert capsys.readouterr() == ("", "")
    assert main(argv) == 1
    reason = "more than k=0 vertices of degree > k"
    assert capsys.readouterr() == (f"kernelization answered NO: {reason}\nNO\n", "")
    assert not kern.exists()
