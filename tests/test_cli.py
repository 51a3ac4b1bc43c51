import json
import time

import pytest

from cdcolor.cli import main
from cdcolor.generate import complete_graph, cycle_graph, petersen_graph
from cdcolor.graph import Graph, parse_graph, to_dimacs
from cdcolor.partize import BRUTE_K_CAP, BRUTE_N_CAP


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


def test_partize_split_and_brute_routes(tmp_path, capsys):
    path = write_graph(tmp_path, "k4.dimacs", complete_graph(4))
    assert main(["partize", "--q", "3", "--k", "1", "--split", path]) == 0
    # q >= 4 falls back to the oracle with a warning
    assert main(["partize", "--q", "4", "--k", "0", path]) == 0
    err = capsys.readouterr().err
    assert "brute-force" in err
    assert f"n <= {BRUTE_N_CAP}" in err and f"k <= {BRUTE_K_CAP}" in err


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
    for q, k in ((1, 12), (0, 13), (-1, 14)):
        assert main(["partize", "--q", str(q), "--k", str(k), path]) == 1
    assert capsys.readouterr().err == ""


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


def test_single_vertex_paths(tmp_path, capsys):
    path = tmp_path / "k1.dimacs"
    path.write_text("p edge 1 0\n")
    assert main(["cdnumber", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "q=1"
    assert main(["recognize", "--q", "1", str(path)]) == 0
    assert main(["partize", "--q", "2", "--k", "0", str(path)]) == 0
    assert main(["cdnumber", "--split", str(path)]) == 0
    assert main(["cdnumber", "--girth5", str(path)]) == 0
