"""End-to-end CLI behavior through main(argv)."""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys

import pytest

import starzagreb.cli as cli
import starzagreb.oracle as oracle
import starzagreb.star as star_module
from starzagreb.cli import main
from starzagreb.graph import to_graph6
from starzagreb.oracle import TheoremCheck, TheoremReport, TheoremResult
from tests.named import path as path_graph
from tests.test_graph import encode_g6_reference


P4_EDGELIST = "4\n0 1\n1 2\n2 3\n"
C4_EDGELIST = "4\n0 1\n1 2\n2 3\n0 3\n"
K2_ISO_EDGELIST = "3\n0 1\n"
CLAW_EDGELIST = "4\n0 1\n0 2\n0 3\n"


def write(tmp_path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def json_lines(captured: str) -> list[dict]:
    return [json.loads(line) for line in captured.splitlines() if line.strip()]


def test_info_human(tmp_path, capsys):
    rc = main(["info", write(tmp_path, "p4.txt", P4_EDGELIST)])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^n\s+: 4$", out, re.M)
    assert re.search(r"^m\s+: 3$", out, re.M)
    assert re.search(r"^degrees\s+: 1 2 2 1$", out, re.M)
    assert re.search(r"^stars\s+: 6 2 0$", out, re.M)
    assert re.search(r"^S1\s+: 3$", out, re.M)
    assert re.search(r"^2\*S1\s+: 6$", out, re.M)
    assert re.search(r"^classification\s*: path$", out, re.M)


def test_info_json(tmp_path, capsys):
    rc = main(["info", write(tmp_path, "p4.txt", P4_EDGELIST), "--json"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 0
    assert len(records) == 1
    rec = records[0]
    assert rec["type"] == "info"
    assert rec["n"] == 4 and rec["m"] == 3
    assert rec["degrees"] == [1, 2, 2, 1]
    assert rec["frequency"] == [0, 2, 2, 0]
    assert rec["stars"] == {"s1": "3", "first_doubled": "6", "sequence": ["6", "2", "0"]}
    assert rec["classification"] == "path"
    assert rec["graph6"] == to_graph6(path_graph(4))


def test_info_single_vertex(tmp_path, capsys):
    rc = main(["info", write(tmp_path, "one.txt", "1\n"), "--json"])
    rec = json_lines(capsys.readouterr().out)[0]
    assert rc == 0
    assert rec["n"] == 1
    assert rec["stars"]["sequence"] == []
    assert rec["classification"] == "other"


def test_info_malformed_edge_list_exits_2(tmp_path, capsys):
    rc = main(["info", write(tmp_path, "bad.txt", "3\n0 9\n"), "--json"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "line 2" in captured.err
    records = json_lines(captured.out)
    assert len(records) == 1
    assert records[0]["type"] == "error"
    assert "line 2" in records[0]["error"]


def test_info_missing_file_exits_2(capsys):
    rc = main(["info", "/nonexistent/graph.txt"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["info", "verify"])
def test_non_utf8_edge_list_exits_2(tmp_path, capsys, command):
    src = tmp_path / "binary.txt"
    src.write_bytes(b"3\n0 1\n\xff\xfe\n")
    rc = main([command, str(src)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {src}: not UTF-8 text")
    assert "Traceback" not in err


def test_memory_error_is_an_input_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(identifier, g):
        raise MemoryError

    monkeypatch.setattr(cli, "info_record", out_of_memory)
    rc = main(["info", write(tmp_path, "p2.txt", "2\n0 1\n")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "error: input too large for the available memory\n"
    assert "Traceback" not in err


def test_oversized_integer_token_is_an_input_error(tmp_path, capsys):
    # The CLI lifts the int-to-str digit limit for output; input tokens
    # beyond the default limit must still be refused, not converted.
    rc = main(["info", write(tmp_path, "huge.txt", "1" + "0" * 5000 + "\n")])
    assert rc == 2
    assert "invalid vertex count" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["info"], ["zagreb", "--p", "2"], ["genfunc"], ["verify"]])
def test_vertex_count_past_sys_maxsize_is_an_input_error(tmp_path, capsys, argv):
    # No list of that many vertices can be indexed, so the parser refuses
    # the count before any command builds one.
    src = write(tmp_path, "h.txt", "99999999999999999999\n")
    rc = main([*argv, src])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == f"error: {src}: line 1: vertex count above the limit sys.maxsize = {sys.maxsize}\n"
    assert "Traceback" not in err


def _decimal(value: int) -> str:
    """str(value) past the interpreter's int-to-str digit limit, if it has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return str(value)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(old)


def test_zagreb_answers_past_the_digit_limit(tmp_path, capsys):
    # Z_2500 of K_{1,61} = 61^2500 + 61 has 4,464 digits.
    claw = "62\n" + "".join(f"0 {leaf}\n" for leaf in range(1, 62))
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    src = write(tmp_path, "k161.txt", claw)
    rc = main(["zagreb", src, "--p", "2500", "--method", "recurrence", "--json"])
    rec = json_lines(capsys.readouterr().out)[0]
    assert rc == 0
    assert rec["values"]["recurrence"] == _decimal(61**2500 + 61)
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_info_graph6_batch(tmp_path, capsys):
    src = write(tmp_path, "two.g6", "Bw\n\nA_\n")
    rc = main(["info", src, "--json"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 0
    assert [r["identifier"] for r in records] == [f"{src}:1", f"{src}:3"]
    assert [r["n"] for r in records] == [3, 2]


def test_graph6_bad_line_yields_error_record_and_continues(tmp_path, capsys):
    src = write(tmp_path, "mixed.g6", "Bw\nnot-a-graph\nA_\n")
    rc = main(["info", src, "--json"])
    captured = capsys.readouterr()
    records = json_lines(captured.out)
    assert rc == 2
    assert [r["type"] for r in records] == ["info", "error", "info"]
    assert records[1]["identifier"] == f"{src}:2"
    assert f"{src}:2" in captured.err


def test_format_flag_overrides_suffix(tmp_path, capsys):
    src = write(tmp_path, "plain.txt", "Bw\n")
    rc = main(["info", src, "--format", "graph6", "--json"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 0
    assert records[0]["n"] == 3


def test_zagreb_all_routes_agree(tmp_path, capsys):
    rc = main(["zagreb", write(tmp_path, "c4.txt", C4_EDGELIST), "--p", "3", "--json"])
    rec = json_lines(capsys.readouterr().out)[0]
    assert rc == 0
    assert rec["values"] == {"direct": "32", "star": "32", "recurrence": "32"}
    assert rec["agree"] is True


def test_zagreb_human_output(tmp_path, capsys):
    rc = main(["zagreb", write(tmp_path, "c4.txt", C4_EDGELIST), "--p", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^direct\s+: 32$", out, re.M)
    assert re.search(r"^agree\s+: yes$", out, re.M)


def test_zagreb_single_method(tmp_path, capsys):
    src = write(tmp_path, "c4.txt", C4_EDGELIST)
    rc = main(["zagreb", src, "--p", "0", "--method", "direct", "--json"])
    rec = json_lines(capsys.readouterr().out)[0]
    assert rc == 0
    assert rec["values"] == {"direct": "4"}
    assert "agree" not in rec


def test_zagreb_rejects_negative_p(tmp_path, capsys):
    rc = main(["zagreb", write(tmp_path, "c4.txt", C4_EDGELIST), "--p", "-1"])
    assert rc == 2
    assert "non-negative" in capsys.readouterr().err


def test_zagreb_star_route_refused_at_p0(tmp_path, capsys):
    rc = main(
        ["zagreb", write(tmp_path, "c4.txt", C4_EDGELIST), "--p", "0", "--method", "star"]
    )
    assert rc == 2
    assert "star route" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["direct", "star", "recurrence", "all"])
def test_zagreb_refuses_answers_past_the_digit_cap(tmp_path, capsys, monkeypatch, method):
    # Z_p of P_3 is 2 + 2^p: 301,030 digits at p = 10^6, just past the cap.
    # The refusal comes before any route runs, so every route raises here.
    def unreachable(*args):
        raise AssertionError("a route ran past the digit cap")

    for route in ("zagreb_direct", "zagreb_from_stars", "zagreb_by_recurrence"):
        monkeypatch.setattr(cli, route, unreachable)
    src = write(tmp_path, "p3.txt", "3\n0 1\n1 2\n")
    for p in ("1000000", "1" + "0" * 400):
        rc = main(["zagreb", src, "--p", p, "--method", method, "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        (record,) = json_lines(captured.out)
        assert record["type"] == "error"
        assert "300,000 decimal digits" in record["error"]
        assert captured.err == f"error: {src}: {record['error']}\n"


@pytest.mark.parametrize("method", ["recurrence", "all"])
def test_zagreb_bounds_recurrence_steps_when_max_degree_is_below_2(
    tmp_path, capsys, monkeypatch, method
):
    # Z_p of K_2 is 2 at every p, but the recurrence runs p steps, so its
    # bound takes the max degree as 2: p*log10(2) + log10(2) <= 300,000.
    def unreachable(*args):
        raise AssertionError("the recurrence ran past its step bound")

    monkeypatch.setattr(cli, "zagreb_by_recurrence", unreachable)
    src = write(tmp_path, "k2.txt", "2\n0 1\n")
    for p in ("996578", "1000000000", "1" + "0" * 400):
        rc = main(["zagreb", src, "--p", p, "--method", method, "--json"])
        captured = capsys.readouterr()
        assert rc == 2
        (record,) = json_lines(captured.out)
        assert record["type"] == "error"
        assert "p*log10(2) + log10(n) must not exceed 300,000" in record["error"]
        assert captured.err == f"error: {src}: {record['error']}\n"
    # Just inside the bound, and for the routes that take no steps, K_2 is
    # answered.
    monkeypatch.undo()
    assert main(["zagreb", src, "--p", "996577", "--method", method, "--json"]) == 0
    (record,) = json_lines(capsys.readouterr().out)
    assert set(record["values"].values()) == {"2"}
    for other in ("direct", "star"):
        assert main(["zagreb", src, "--p", "1000000000", "--method", other, "--json"]) == 0
        (record,) = json_lines(capsys.readouterr().out)
        assert record["values"] == {other: "2"}


def test_zagreb_digit_cap_refuses_only_that_graph(tmp_path, capsys):
    # In a batch, P_3 is refused while K_1, whose Z_p has one digit, is answered.
    src = write(tmp_path, "p3-k1.g6", "Bw\n@\n")
    rc = main(["zagreb", src, "--p", "1000000", "--method", "direct", "--json"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 2
    assert [r["type"] for r in records] == ["error", "zagreb"]
    assert records[1]["values"] == {"direct": "0"}


@pytest.mark.parametrize("graph", ["Bw", "A_", "@", "E{Sw", "K~~~~~~~~~~~"])
@pytest.mark.parametrize("p", [0, 1, 2, 7, 100, 1000])
def test_zagreb_digit_estimate_bounds_the_answer(graph, p):
    # Z_p lies between D^p and n*D^p, so the estimate log10(n*D^p) is at
    # least the answer's digits less one and within log10(n) of them.
    g = cli.parse_graph6(graph)
    digits = len(str(cli.zagreb_direct(g, p)))
    estimate = cli._zagreb_digits(g, p)
    assert digits - 1 <= estimate < digits + math.log10(g.n)


def test_zagreb_route_disagreement_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "zagreb_from_stars", lambda s, p: 10**9)
    rc = main(["zagreb", write(tmp_path, "c4.txt", C4_EDGELIST), "--p", "3", "--json"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "disagree" in captured.err
    rec = json_lines(captured.out)[0]
    assert rec["agree"] is False


def test_genfunc_json(tmp_path, capsys):
    rc = main(["genfunc", write(tmp_path, "k2iso.txt", K2_ISO_EDGELIST), "--json"])
    rec = json_lines(capsys.readouterr().out)[0]
    assert rc == 0
    assert rec["numerator"] == ["3", "-16", "23", "-6"]
    assert rec["denominator_factors"] == ["1-t", "1-2t", "1-3t"]
    assert rec["strictly_proper"] is False


def test_genfunc_human(tmp_path, capsys):
    rc = main(["genfunc", write(tmp_path, "p4.txt", P4_EDGELIST)])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^denominator\s+: \(1-t\)\(1-2t\)\(1-3t\)\(1-4t\)$", out, re.M)
    assert re.search(r"^strictly proper\s*: yes$", out, re.M)


def test_verify_edge_list_full_report(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, "claw.txt", CLAW_EDGELIST)])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^status\s+: PASS", out, re.M)
    assert "erratum moment_rhs_sign [triggered]" in out
    assert "m=1 lhs=3" in out
    assert "erratum f1_term_sign [triggered]" in out
    assert "erratum recurrence_index_base [triggered]" in out
    assert re.search(r"summary: graphs=1 checks=\d+ failures=0 .* -> PASS", out)


def test_verify_edge_list_json(tmp_path, capsys):
    rc = main(["verify", write(tmp_path, "claw.txt", CLAW_EDGELIST), "--json"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 0
    report, summary = records
    assert report["type"] == "report" and report["passed"] is True
    assert set(report["theorems"]) == {
        "inversion",
        "moments",
        "inverse_degree_sum",
        "zagreb_from_stars",
        "genfunc",
        "recurrence",
        "star_bruteforce",
    }
    assert all(t["status"] == "pass" for t in report["theorems"].values())
    assert summary["type"] == "summary"
    assert summary == {
        "type": "summary",
        "graphs": 1,
        "checks": report["checks"],
        "failures": 0,
        "errata_observations": 3,
        "passed": True,
    }


def test_verify_exhaustive_n3_json(capsys):
    rc = main(["verify", "--exhaustive", "--n", "3", "--json"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 0
    summary = records[-1]
    reports = records[:-1]
    assert len(reports) == 8
    assert [r["identifier"] for r in reports] == [f"n=3:mask={k}" for k in range(8)]
    assert summary["graphs"] == 8
    assert summary["checks"] == sum(r["checks"] for r in reports) == 456
    assert summary["failures"] == 0
    assert summary["passed"] is True


def test_verify_exhaustive_human_compact(capsys):
    rc = main(["verify", "--exhaustive", "--n", "2", "--p-max", "2", "--m-max", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 3  # two graphs + summary
    assert lines[0].startswith("PASS n=2:mask=0 ")
    assert "errata=-" in lines[0]
    assert "moment_rhs_sign" in lines[1]
    assert lines[2].startswith("summary: graphs=2")


def test_verify_usage_errors(tmp_path, capsys):
    cases = [
        ["verify", "--exhaustive"],
        ["verify", "--exhaustive", "--n", "9"],
        ["verify", "--exhaustive", "--n", "0"],
        ["verify", "--n", "3"],
        ["verify"],
        ["verify", "--exhaustive", "--n", "3", write(tmp_path, "x.txt", "1\n")],
        ["verify", "--exhaustive", "--n", "3", "--p-max", "0"],
        ["verify", "--exhaustive", "--n", "3", "--m-max", "-1"],
        ["verify", "--exhaustive", "--n", "3", "--jobs", "0"],
    ]
    for argv in cases:
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2, argv
        assert captured.err.startswith("error:"), argv


@pytest.mark.parametrize("flag, name", [("--p-max", "p_max"), ("--m-max", "m_max")])
def test_verify_refuses_exponents_past_their_bound(tmp_path, capsys, flag, name):
    # Refused before any input is read: the file does not exist.
    bound = oracle.MAX_VERIFY_EXPONENT
    low = 1 if name == "p_max" else 0
    missing = str(tmp_path / "never-read.txt")
    for argv in (["verify", missing], ["verify", "--exhaustive", "--n", "3"]):
        for value in (bound + 1, 10**9):
            assert main([*argv, flag, str(value)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {name} must be between {low} and MAX_VERIFY_EXPONENT = {bound}\n"
            )
    src = write(tmp_path, "k2.txt", "2\n0 1\n")
    assert main(["verify", src, flag, str(bound)]) == 0
    assert "-> PASS" in capsys.readouterr().out


def test_verify_graph6_batch_with_bad_line(tmp_path, capsys):
    src = write(tmp_path, "mixed.g6", "Bw\n###\nA_\n")
    rc = main(["verify", src, "--json", "--p-max", "3", "--m-max", "2"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 2  # parse error, no verification failures
    types = [r["type"] for r in records]
    assert types == ["report", "error", "report", "summary"]
    assert records[-1]["graphs"] == 2
    assert records[-1]["passed"] is True


def test_verify_refuses_k161_edge_list(tmp_path, capsys, monkeypatch):
    def never(g):
        raise AssertionError("brute force started on a refused graph")

    monkeypatch.setattr(oracle, "star_counts_bruteforce", never)
    src = write(tmp_path, "k161.txt", "62\n" + "".join(f"0 {i}\n" for i in range(1, 62)))
    assert main(["verify", src]) == 2
    captured = capsys.readouterr()
    assert "summary: graphs=0 checks=0 failures=0 " in captured.out
    assert f"error: {src}: n = 62 is above the brute-force limit of 20 " in captured.err


@pytest.mark.parametrize(
    "name, text",
    [
        ("k161.txt", "62\n" + "".join(f"0 {i}\n" for i in range(1, 62))),
        ("unparsable.g6", "###\n"),
    ],
    ids=["refused_edge_list", "unparsable_graph6"],
)
def test_verify_summary_is_error_when_nothing_was_verified(tmp_path, capsys, name, text):
    src = write(tmp_path, name, text)
    assert main(["verify", src]) == 2
    captured = capsys.readouterr()
    assert captured.out == (
        "summary: graphs=0 checks=0 failures=0 errata_observations=0 -> ERROR\n"
    )
    assert captured.err.startswith(f"error: {src}")
    assert main(["verify", src, "--json"]) == 2
    records = json_lines(capsys.readouterr().out)
    assert [r["type"] for r in records] == ["error", "summary"]
    assert records[1] == {
        "type": "summary",
        "graphs": 0,
        "checks": 0,
        "failures": 0,
        "errata_observations": 0,
        "passed": False,
    }


def test_verify_graph6_refuses_only_the_oversized_line(tmp_path, capsys, monkeypatch):
    src = write(tmp_path, "mixed.g6", f"{to_graph6(path_graph(21))}\nBw\n")
    real = oracle.star_counts_bruteforce

    def small_only(g):
        assert g.n <= 20, "brute force started on a refused graph"
        return real(g)

    monkeypatch.setattr(oracle, "star_counts_bruteforce", small_only)
    rc = main(["verify", src, "--json"])
    captured = capsys.readouterr()
    records = json_lines(captured.out)
    assert rc == 2
    assert [r["type"] for r in records] == ["error", "report", "summary"]
    assert records[0]["identifier"] == f"{src}:1"
    assert "n = 21 is above the brute-force limit of 20" in records[0]["error"]
    assert records[1]["identifier"] == f"{src}:2" and records[1]["passed"] is True
    assert records[2]["graphs"] == 1 and records[2]["passed"] is True
    assert f"error: {src}:1: n = 21 " in captured.err


def test_verify_jobs_output_identical(capsys):
    argv = ["verify", "--exhaustive", "--n", "3", "--json", "--p-max", "3", "--m-max", "2"]
    rc1 = main(argv + ["--jobs", "1"])
    out1 = capsys.readouterr().out
    rc2 = main(argv + ["--jobs", "2"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_failure_exits_1(tmp_path, capsys, monkeypatch):
    broken = TheoremReport(
        graph_id="forced",
        n=2,
        m=1,
        p_max=1,
        m_max=1,
        theorems=(TheoremResult("inversion", (TheoremCheck("S1", 1),)),),
        errata=(),
    )
    monkeypatch.setattr(cli, "verify_all_identities", lambda *a, **kw: broken)
    rc = main(["verify", write(tmp_path, "k2.txt", "2\n0 1\n")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL S1 residual=1" in out
    assert "failures=1" in out


@pytest.fixture
def c42_is_7(monkeypatch):
    """The star module's binomial with C(4, 2) = 7.  On a graph with a
    degree-4 vertex, star_from_frequency then miscounts S_2, and
    frequency_from_star raises on the negative f_0 it forces."""
    real = star_module.binomial
    monkeypatch.setattr(star_module, "binomial", lambda n, k: 7 if (n, k) == (4, 2) else real(n, k))


K5_EDGELIST = "5\n" + "".join(f"{u} {v}\n" for u in range(5) for v in range(u + 1, 5))


def test_verify_reports_a_route_that_raises_as_a_failed_check(tmp_path, capsys, c42_is_7):
    src = write(tmp_path, "k5.txt", K5_EDGELIST)
    rc = main(["verify", src, "--json"])
    captured = capsys.readouterr()
    report, summary = json_lines(captured.out)
    assert rc == 1
    assert captured.err == ""
    assert report["passed"] is False and summary["failures"] == 1
    failed = {name for name, t in report["theorems"].items() if t["status"] == "fail"}
    assert failed == {"inversion"}
    residuals = report["theorems"]["inversion"]["residuals"]
    label = "raised InconsistentSequenceError: star counts force f_0 = -5 < 0"
    assert residuals[label] == "1"
    assert main(["verify", src]) == 1
    out = capsys.readouterr().out
    assert f"    FAIL {label} residual=1\n" in out
    assert out.endswith(" failures=1 errata_observations=3 -> FAIL\n")


def test_exhaustive_sweep_reports_a_route_that_raises(capsys, c42_is_7):
    rc = main(["verify", "--exhaustive", "--n", "5"])
    captured = capsys.readouterr()
    # Exactly the graphs with a degree-4 vertex fail, each in inversion.
    hubs = sum(4 in g.vertex_degrees for g in oracle.all_labeled_graphs(5))
    assert rc == 1
    assert captured.err == ""
    assert captured.out.splitlines()[-1].startswith(f"summary: graphs=1024 checks=")
    assert f" failures={hubs} " in captured.out.splitlines()[-1]
    fails = [line for line in captured.out.splitlines() if line.startswith("  FAIL ")]
    assert {line.split("/")[0] for line in fails} == {"  FAIL inversion"}
    assert sum("/raised InconsistentSequenceError: " in line for line in fails) == hubs


@pytest.mark.parametrize(
    "name, theorem",
    [("inverse_degree_edge_sum", "inverse_degree_sum"), ("star_counts_bruteforce", "star_bruteforce")],
)
def test_verify_reports_a_per_graph_route_that_raises_in_its_theorem_only(
    tmp_path, capsys, monkeypatch, name, theorem
):
    # The edge sum and the brute-force star counts are read inside the one
    # theorem that checks each, so a raise there fails that theorem; it is
    # not a refused input.
    def raising(g):
        raise ValueError(f"{name} fault")

    monkeypatch.setattr(oracle, name, raising)
    src = write(tmp_path, "k5.txt", K5_EDGELIST)
    rc = main(["verify", src, "--json"])
    captured = capsys.readouterr()
    report, summary = json_lines(captured.out)
    assert rc == 1
    assert captured.err == ""
    assert summary["failures"] == 1
    failed = {t for t, result in report["theorems"].items() if result["status"] == "fail"}
    assert failed == {theorem}
    label = f"raised ValueError: {name} fault"
    assert report["theorems"][theorem]["residuals"] == {label: "1"}
    assert len(report["errata"]) == 3
    assert main(["verify", src]) == 1
    out = capsys.readouterr().out
    assert f"    FAIL {label} residual=1\n" in out
    assert out.endswith(" failures=1 errata_observations=3 -> FAIL\n")


def test_refusals_still_come_before_any_route(tmp_path, capsys, c42_is_7):
    src = write(tmp_path, "k1_20.txt", "21\n" + "".join(f"0 {i}\n" for i in range(1, 21)))
    assert main(["verify", src]) == 2
    assert "n = 21 is above the brute-force limit of 20" in capsys.readouterr().err
    assert main(["verify", write(tmp_path, "k5.txt", K5_EDGELIST), "--p-max", "41"]) == 2


# A graph6 batch with a 4-vertex path, a blank line, a bad line, K_{1,61}
# (the largest star graph6 encodes in one byte) and the empty graph on 21
# vertices.
K161_G6 = encode_g6_reference(62, {(0, i) for i in range(1, 62)})
TEXT_BATCH_G6 = "\n".join(["Ch", "", "###", K161_G6, "T" + "?" * 35]) + "\n"

# sha256 of stdout for TEXT_BATCH_G6 read as batch.g6, recorded from the
# implementation that printed each subcommand through its own loop.
PINNED_TEXT_BATCH_SHA256 = {
    ("info",): (
        "4cca7e21a6b0cd5848d2bb5d53e164d426231b3d32fd598afdc667eebca95833",
        "1187852e201b26e54575ad22227b2287f42340ada79d43e0b518643dd68c9fc4",
    ),
    ("zagreb", "--p", "3"): (
        "21dd8c71e8f54d00b5d793e50720eeec5d4c3ff38fc58e9410b2581a72a408ce",
        "f696b9a34a21ccf46957439a983df647427cae12ab38c174487d126ea09d05ba",
    ),
    ("genfunc",): (
        "c567895b428a1430644ffa8e86c4ea4264b977040105c2dea600f1ac27409b67",
        "38ea4434a4531b3e644f72668b62d0e290950ba0025ee4cd348bd21afc45075e",
    ),
}


@pytest.mark.parametrize("command", list(PINNED_TEXT_BATCH_SHA256))
def test_graph6_batch_output_is_pinned(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    write(tmp_path, "batch.g6", TEXT_BATCH_G6)
    for extra, digest in zip(([], ["--json"]), PINNED_TEXT_BATCH_SHA256[command]):
        rc = main([command[0], "batch.g6", *command[1:], *extra])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: batch.g6:3: invalid graph6 character '#' at position 0\n"
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest, extra
        if not extra:
            # Each text record is followed by one blank line.
            assert captured.out.count("\n\n") == 3 and captured.out.endswith("\n\n")


BAD_LINE_G6 = "Bw\n###\nA_\n"


def test_zagreb_disagreement_outranks_a_bad_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "zagreb_from_stars", lambda s, p: 10**9)
    src = write(tmp_path, "mixed.g6", BAD_LINE_G6)
    rc = main(["zagreb", src, "--p", "3"])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {src}:2: invalid graph6 character '#' at position 0",
        "error: evaluation routes disagree; this is a bug",
    ]


def test_verify_failure_outranks_a_bad_line(tmp_path, capsys, monkeypatch):
    broken = TheoremReport(
        graph_id="forced",
        n=2,
        m=1,
        p_max=1,
        m_max=1,
        theorems=(TheoremResult("inversion", (TheoremCheck("S1", 1),)),),
        errata=(),
    )
    monkeypatch.setattr(cli, "verify_all_identities", lambda *a, **kw: broken)
    src = write(tmp_path, "mixed.g6", BAD_LINE_G6)
    rc = main(["verify", src])
    captured = capsys.readouterr()
    assert rc == 1
    assert f"error: {src}:2:" in captured.err
    assert "summary: graphs=2 checks=2 failures=2 " in captured.out


@pytest.mark.parametrize("command", ["info", "genfunc"])
def test_bad_line_without_failures_exits_2(tmp_path, capsys, command):
    src = write(tmp_path, "mixed.g6", BAD_LINE_G6)
    rc = main([command, src, "--json"])
    records = json_lines(capsys.readouterr().out)
    assert rc == 2
    assert [r["type"] for r in records] == [command, "error", command]


@pytest.mark.parametrize(
    "command, record",
    [
        (["info"], "info_record"),
        (["zagreb", "--p", "2"], "zagreb_record"),
        (["genfunc"], "genfunc_record"),
    ],
)
def test_record_commands_read_one_line_ahead(tmp_path, capsys, monkeypatch, command, record):
    src = tmp_path / "k2.g6"
    src.write_text("A_\n" * 1000)
    lines_read = 0
    read_at_first_record = []

    class CountingFile:
        def __init__(self, *args, **kwargs):
            self.fh = open(*args, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __iter__(self):
            nonlocal lines_read
            for line in self.fh:
                lines_read += 1
                yield line

    real = getattr(cli, record)

    def recording(*args, **kwargs):
        if not read_at_first_record:
            read_at_first_record.append(lines_read)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "open", CountingFile, raising=False)
    monkeypatch.setattr(cli, record, recording)
    assert main([command[0], str(src), *command[1:], "--json"]) == 0
    records = json_lines(capsys.readouterr().out)
    assert [r["type"] for r in records] == [command[0]] * 1000
    assert lines_read == 1000
    assert read_at_first_record[0] <= 1
