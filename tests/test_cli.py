"""End-to-end CLI tests: JSON report shapes, exit codes, artifact formats.

Each test drives main(argv) in-process and inspects stdout/stderr through
capsys, so the suite never shells out.
"""

import dataclasses
import hashlib
import json
import re
from pathlib import Path

import pytest

from qss import cli
from qss.cli import (
    EXIT_BUDGET,
    EXIT_DISAGREEMENT,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PRECONDITION,
    main,
)
from qss.multigraph import DealerGraph, Multigraph, parse_graph, random_graph, rs747_fixture, serialize_graph
from qss.search import exhaustive_search, random_trials, scheme_k


@pytest.fixture
def star_file(tmp_path):
    g = Multigraph(3, [[0, 1, 1], [1, 0, 0], [1, 0, 0]])
    path = tmp_path / "star.graph"
    path.write_text(serialize_graph(g))
    return str(path)


@pytest.fixture
def rs_file(tmp_path):
    path = tmp_path / "rs.graph"
    path.write_text(serialize_graph(rs747_fixture().graph))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(out):
    rep = json.loads(out)
    assert {"command", "inputs", "result", "seed", "wall_time"} <= set(rep)
    return rep


# --------------------------------------------------------------------- access


def test_access_full_set(capsys, star_file):
    code, out, _ = run(capsys, ["access", star_file, "--dealer", "0", "--set", "1,2"])
    assert code == EXIT_OK
    rep = report(out)
    assert rep["command"] == "access"
    assert rep["result"] == {
        "classical": "accessible",
        "quantum": "accessible",
        "pi": 1,
        "derivative": -1,
        "witness_d": {"1": 1},
        "witness_c": None,
    }
    assert rep["seed"] is None


def test_access_partial_and_empty_sets(capsys, star_file):
    code, out, _ = run(capsys, ["access", star_file, "--dealer", "0", "--set", "1"])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert (res["classical"], res["quantum"]) == ("accessible", "partial")
    assert (res["pi"], res["derivative"]) == (1, 0)

    code, out, _ = run(capsys, ["access", star_file, "--dealer", "0", "--set", ""])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert (res["classical"], res["quantum"]) == ("no_info", "no_info")
    assert (res["pi"], res["derivative"]) == (0, 1)
    assert res["witness_c"] == {"0": 1}


def test_access_reads_stdin(capsys, monkeypatch, star_file):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(Path(star_file).read_text()))
    code, out, _ = run(capsys, ["access", "-", "--dealer", "0", "--set", "1,2"])
    assert code == EXIT_OK
    assert report(out)["result"]["derivative"] == -1


def test_access_strips_dealer_with_warning(capsys, star_file):
    code, out, err = run(capsys, ["access", star_file, "--dealer", "0", "--set", "0,1,2"])
    assert code == EXIT_OK
    assert "dealer 0 removed" in err
    rep = report(out)
    assert rep["inputs"]["set"] == [1, 2]
    assert rep["result"]["derivative"] == -1


# Order-11 reports pinned byte for byte, wall_time aside: a witness D over F_3
# and a witness C over F_5, each with support on vertices 2 and 10, so the
# sorted JSON lists key "10" before key "2".
ACCESS_PINS_N11 = [
    ("q 3\nn 11\ne 0 1 2\ne 0 2 2\ne 0 3 2\ne 0 4 1\ne 0 5 2\ne 0 6 2\ne 0 7 2\ne 0 9 1\ne 0 10 1\ne 1 3 1\n"
     "e 1 4 1\ne 1 5 2\ne 1 6 1\ne 1 8 2\ne 1 9 2\ne 2 3 1\ne 2 4 1\ne 2 5 2\ne 2 7 1\ne 2 8 2\ne 2 9 1\n"
     "e 3 4 2\ne 3 5 2\ne 3 6 2\ne 3 7 2\ne 3 8 1\ne 3 9 2\ne 3 10 2\ne 4 5 1\ne 4 6 2\ne 4 7 1\ne 4 9 1\n"
     "e 4 10 1\ne 5 7 2\ne 5 8 1\ne 5 9 2\ne 6 7 1\ne 6 10 1\ne 7 8 1\ne 7 9 1\ne 7 10 1\ne 8 9 2\n"
     "e 8 10 1\ne 9 10 1\n", "1,2,4,6,8,10",
     '{"command": "access", "inputs": {"dealer": 0, "graph": "GRAPH", "set": [1, 2, 4, 6, 8, 10]}, "result": '
     '{"classical": "accessible", "derivative": -1, "pi": 1, "quantum": "accessible", "witness_c": null, '
     '"witness_d": {"1": 2, "10": 2, "2": 2, "4": 1, "6": 1}}, "seed": null, "wall_time": X}\n'),
    ("q 5\nn 11\ne 0 1 4\ne 0 2 4\ne 0 3 4\ne 0 4 4\ne 0 6 4\ne 0 7 4\ne 0 8 1\ne 1 2 3\ne 1 3 4\ne 1 4 3\n"
     "e 1 5 3\ne 1 6 3\ne 1 8 4\ne 1 9 4\ne 2 3 4\ne 2 4 4\ne 2 5 1\ne 2 6 2\ne 2 7 4\ne 2 8 4\ne 2 10 3\n"
     "e 3 4 2\ne 3 5 1\ne 3 6 4\ne 3 7 3\ne 3 8 2\ne 3 9 4\ne 3 10 2\ne 4 5 4\ne 4 7 4\ne 4 8 4\ne 4 9 2\n"
     "e 4 10 2\ne 5 6 1\ne 5 7 1\ne 5 8 1\ne 5 9 3\ne 5 10 1\ne 6 7 4\ne 6 8 1\ne 6 9 2\ne 6 10 1\n"
     "e 7 8 3\ne 7 9 1\ne 7 10 4\ne 8 9 3\ne 9 10 4\n", "3,4,5,6",
     '{"command": "access", "inputs": {"dealer": 0, "graph": "GRAPH", "set": [3, 4, 5, 6]}, "result": '
     '{"classical": "no_info", "derivative": 1, "pi": 0, "quantum": "no_info", "witness_c": '
     '{"0": 1, "1": 3, "10": 1, "2": 2, "7": 3}, "witness_d": null}, "seed": null, "wall_time": X}\n'),
]


@pytest.mark.parametrize("text, vset, pinned", ACCESS_PINS_N11)
def test_access_report_pinned_n11(capsys, tmp_path, text, vset, pinned):
    path = tmp_path / "n11.graph"
    path.write_text(text)
    code, out, _ = run(capsys, ["access", str(path), "--dealer", "0", "--set", vset])
    assert code == EXIT_OK
    assert re.sub(r'"wall_time": [0-9.e-]+', '"wall_time": X', out) == pinned.replace("GRAPH", str(path))


def test_access_report_deterministic_modulo_wall_time(capsys, star_file):
    argv = ["access", star_file, "--dealer", "0", "--set", "1,2"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("wall_time"), b.pop("wall_time")
    assert a == b


# ----------------------------------------------------------------- exit codes


def test_parse_errors_exit_1(capsys, star_file):
    code, _, err = run(capsys, ["access", star_file, "--dealer", "0", "--set", "1,x"])
    assert code == EXIT_PARSE
    assert "not comma-separated integers" in err

    code, _, err = run(capsys, ["no-such-command"])
    assert code == EXIT_PARSE
    assert "error:" in err

    code, _, err = run(capsys, ["access"])  # missing required arguments
    assert code == EXIT_PARSE


def test_precondition_errors_exit_2(capsys, star_file, tmp_path):
    code, _, err = run(capsys, ["access", star_file, "--dealer", "0", "--set", "9"])
    assert code == EXIT_PRECONDITION
    assert "leaves the range" in err

    code, _, err = run(capsys, ["access", str(tmp_path / "missing.graph"), "--dealer", "0", "--set", "1"])
    assert code == EXIT_PRECONDITION

    # the exit code follows the exception type, not words in its message
    code, _, err = run(capsys, ["scheme-k", str(tmp_path / "no_budget_here.txt"), "--dealer", "0"])
    assert code == EXIT_PRECONDITION

    bad = tmp_path / "bad.graph"
    bad.write_text("q 4\nn 3\n")
    code, _, err = run(capsys, ["access", str(bad), "--dealer", "0", "--set", "1"])
    assert code == EXIT_PRECONDITION

    # a field above the size ceiling is refused before any allocation
    code, _, err = run(capsys, ["sample", "--n", "5", "--q", "4294967311", "--alpha", "0.75",
                                "--trials", "10", "--seed", "1"])
    assert code == EXIT_PRECONDITION
    assert "ceiling" in err

    # a checkpoint written by another search is not resumed
    ck = str(tmp_path / "run.ckpt")
    assert run(capsys, ["search", "--n", "4", "--q", "3", "--k", "3", "--checkpoint", ck])[0] == EXIT_OK
    code, out, err = run(capsys, ["search", "--n", "5", "--q", "2", "--k", "3", "--checkpoint", ck])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "another search" in err


DEALER_ARGS = {
    "access": ["--set", "1"],
    "scheme-k": [],
    "oracle-verify": ["--seed", "3"],
    "cq-round": ["--set", "1", "--seed", "3"],
    "qq-decode": ["--set", "1", "--seed", "3"],
}


@pytest.mark.parametrize("dealer", ["9", "-1", "8"])
@pytest.mark.parametrize("command", sorted(DEALER_ARGS))
def test_dealer_out_of_range_exit_2(capsys, rs_file, command, dealer):
    # rs747 has 8 vertices, so 8 and 9 are past its end and -1 is before it
    code, out, err = run(capsys, [command, rs_file, "--dealer", dealer, *DEALER_ARGS[command]])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert f"dealer {dealer} out of range" in err


def test_budget_errors_exit_3(capsys, star_file, rs_file):
    code, _, err = run(
        capsys,
        ["cq-round", star_file, "--dealer", "0", "--set", "1,2", "--seed", "4", "--budget", "8"],
    )
    assert code == EXIT_BUDGET
    assert "exceed the budget" in err

    code, _, err = run(
        capsys,
        ["oracle-verify", rs_file, "--dealer", "7", "--seed", "3", "--budget", "100"],
    )
    assert code == EXIT_BUDGET


# ------------------------------------------------------------------- scheme-k


def test_scheme_k_star(capsys, star_file):
    code, out, _ = run(capsys, ["scheme-k", star_file, "--dealer", "0"])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res == {
        "k": 2,
        "n_players": 2,
        "worst_unauthorized": [1],
    }


def test_scheme_k_rs747(capsys, rs_file):
    code, out, _ = run(capsys, ["scheme-k", rs_file, "--dealer", "7"])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["k"] == 4
    assert res["n_players"] == 7


# Random graphs of the benchmark's threshold shapes (n 9 to 11, q 2 to 7),
# random_graph(n, q, seed 10 n + q) with dealer q: (n, q, dealer, k, worst).
SCHEME_K_PINS = [
    (9, 2, 2, 7, [0, 1, 5, 6, 7, 8]),
    (9, 3, 3, 6, [0, 1, 2, 5, 6]),
    (9, 5, 5, 6, [0, 1, 2, 3, 7]),
    (9, 7, 7, 6, [1, 2, 3, 5, 6]),
    (10, 2, 2, 8, [0, 4, 5, 6, 7, 8, 9]),
    (10, 3, 3, 7, [0, 1, 4, 7, 8, 9]),
    (10, 5, 5, 7, [0, 1, 3, 4, 6, 7]),
    (10, 7, 7, 7, [2, 3, 4, 5, 8, 9]),
    (11, 2, 2, 8, [0, 1, 3, 6, 7, 9, 10]),
    (11, 3, 3, 8, [1, 2, 4, 5, 6, 8, 9]),
    (11, 5, 5, 8, [0, 1, 3, 6, 7, 8, 9]),
    (11, 7, 7, 7, [0, 1, 4, 5, 9, 10]),
]


def _asdict_report(out, command, inputs, result, seed):
    """The report line as the CLI printed it when it emitted
    dataclasses.asdict(result), with the wall_time of out."""
    rep = {"command": command, "inputs": inputs, "result": dataclasses.asdict(result), "seed": seed,
           "wall_time": json.loads(out)["wall_time"]}
    return json.dumps(rep, sort_keys=True) + "\n"


@pytest.mark.parametrize("n, q, dealer, k, worst", SCHEME_K_PINS)
def test_scheme_k_report_bytes_match_asdict(capsys, tmp_path, n, q, dealer, k, worst):
    g = random_graph(n, q, 10 * n + q)
    path = tmp_path / "g.graph"
    path.write_text(serialize_graph(g))
    code, out, _ = run(capsys, ["scheme-k", str(path), "--dealer", str(dealer)])
    assert code == EXIT_OK
    rep = scheme_k(DealerGraph(g, dealer))
    assert (rep.k, list(rep.worst_unauthorized), rep.n_players) == (k, worst, n - 1)
    assert out == _asdict_report(out, "scheme-k", {"graph": str(path), "dealer": dealer}, rep, None)


@pytest.mark.parametrize("dealer, worst", [(0, "[1, 2, 3]"), (7, "[0, 1, 2]")])
def test_scheme_k_report_pinned_rs747(capsys, rs_file, dealer, worst):
    code, out, _ = run(capsys, ["scheme-k", rs_file, "--dealer", str(dealer)])
    assert code == EXIT_OK
    pinned = (f'{{"command": "scheme-k", "inputs": {{"dealer": {dealer}, "graph": "GRAPH"}}, "result": '
              f'{{"k": 4, "n_players": 7, "worst_unauthorized": {worst}}}, '
              '"seed": null, "wall_time": X}\n')
    assert re.sub(r'"wall_time": [0-9.e-]+', '"wall_time": X', out) == pinned.replace("GRAPH", rs_file)
    rep = scheme_k(DealerGraph(rs747_fixture().graph, dealer))
    assert out == _asdict_report(out, "scheme-k", {"graph": rs_file, "dealer": dealer}, rep, None)


# search and sample reports, pinned byte for byte, wall_time aside: found,
# exhausted and budget_exceeded searches, a sample and a sample of no trials
REPORT_PINS = [
    (["search", "--n", "4", "--q", "3", "--k", "2"], EXIT_OK,
     '{"command": "search", "inputs": {"budget": null, "k": 2, "n": 4, "q": 3, "workers": 1}, "result": '
     '{"checked": 124, "graph_text": "q 3\\nn 4\\ne 0 2 1\\ne 0 3 1\\ne 1 2 1\\ne 1 3 2\\n", "index": 123, '
     '"next_index": 729, "status": "found"}, "seed": null, "wall_time": X}\n'),
    (["search", "--n", "4", "--q", "2", "--k", "2"], EXIT_OK,
     '{"command": "search", "inputs": {"budget": null, "k": 2, "n": 4, "q": 2, "workers": 1}, "result": '
     '{"checked": 64, "graph_text": null, "index": null, "next_index": 64, "status": "exhausted"}, '
     '"seed": null, "wall_time": X}\n'),
    (["search", "--n", "4", "--q", "3", "--k", "2", "--budget", "60"], EXIT_BUDGET,
     '{"command": "search", "inputs": {"budget": 60, "k": 2, "n": 4, "q": 3, "workers": 1}, "result": '
     '{"checked": 60, "graph_text": null, "index": null, "next_index": 60, "status": "budget_exceeded"}, '
     '"seed": null, "wall_time": X}\n'),
    (["sample", "--n", "6", "--q", "3", "--alpha", "0.8", "--trials", "300", "--seed", "77"], EXIT_OK,
     '{"command": "sample", "inputs": {"alpha": 0.8, "n": 6, "q": 3, "trials": 300}, "result": '
     '{"alpha": 0.8, "n": 6, "q": 3, "seed": 77, "success_rate": 0.84, "successes": 252, "trials": 300}, '
     '"seed": 77, "wall_time": X}\n'),
    (["sample", "--n", "5", "--q", "2", "--alpha", "0.6", "--trials", "0", "--seed", "8"], EXIT_OK,
     '{"command": "sample", "inputs": {"alpha": 0.6, "n": 5, "q": 2, "trials": 0}, "result": '
     '{"alpha": 0.6, "n": 5, "q": 2, "seed": 8, "success_rate": null, "successes": 0, "trials": 0}, '
     '"seed": 8, "wall_time": X}\n'),
]


@pytest.mark.parametrize("argv, exit_code, pinned", REPORT_PINS)
def test_search_and_sample_report_bytes_match_asdict(capsys, argv, exit_code, pinned):
    code, out, _ = run(capsys, argv)
    assert code == exit_code
    assert re.sub(r'"wall_time": [0-9.e-]+', '"wall_time": X', out) == pinned
    rep = json.loads(out)
    args = {key: rep["inputs"][key] for key in ("n", "q")}
    if argv[0] == "search":
        result = exhaustive_search(k=rep["inputs"]["k"], budget=rep["inputs"]["budget"], **args)
    else:
        result = random_trials(alpha=rep["inputs"]["alpha"], trials=rep["inputs"]["trials"], seed=rep["seed"], **args)
    assert out == _asdict_report(out, argv[0], rep["inputs"], result, rep["seed"])


# --------------------------------------------------------------------- search


def test_search_exhausts_without_scheme(capsys):
    code, out, _ = run(capsys, ["search", "--n", "4", "--q", "2", "--k", "2"])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["status"] == "exhausted"
    assert res["checked"] == 64
    assert res["graph_text"] is None and res["index"] is None


def test_search_finds_scheme(capsys):
    code, out, _ = run(capsys, ["search", "--n", "4", "--q", "3", "--k", "2"])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["status"] == "found"
    assert (res["index"], res["checked"]) == (123, 124)
    found = parse_graph(res["graph_text"])
    assert found.q == 3 and found.n == 4


def test_search_budget_exit_and_checkpoint_resume(capsys, tmp_path):
    ckpt = str(tmp_path / "progress.ckpt")
    argv = ["search", "--n", "4", "--q", "3", "--k", "2", "--budget", "60", "--checkpoint", ckpt]
    code, out, _ = run(capsys, argv)
    assert code == EXIT_BUDGET
    first = report(out)["result"]
    assert first["status"] == "budget_exceeded"
    assert first["checked"] == 60

    code, out, _ = run(capsys, ["search", "--n", "4", "--q", "3", "--k", "2", "--checkpoint", ckpt])
    assert code == EXIT_OK
    second = report(out)["result"]
    assert second["status"] == "found"
    assert second["index"] == 123
    assert second["checked"] == 124 - 60  # resumed, not restarted


def test_search_malformed_checkpoint_record_exit_2(capsys, tmp_path):
    ckpt = tmp_path / "progress.ckpt"
    ckpt.write_text("# n=4 q=3 k=2 dealer_fixed=1\n0, 59, none\n0, 99, no\n")
    code, out, err = run(capsys, ["search", "--n", "4", "--q", "3", "--k", "2", "--checkpoint", str(ckpt)])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert f"checkpoint {ckpt} line 3: '0, 99, no'" in err


def test_search_checkpoint_record_out_of_range_exit_2(capsys, tmp_path):
    ckpt = tmp_path / "progress.ckpt"
    for record in ("0, -50, none", "0, 10, 5"):
        ckpt.write_text(f"# n=4 q=3 k=2 dealer_fixed=1\n{record}\n")
        code, out, err = run(capsys, ["search", "--n", "4", "--q", "3", "--k", "2", "--checkpoint", str(ckpt)])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert f"checkpoint {ckpt} line 2: '{record}'" in err


def test_search_beyond_int64_indices_exit_2(capsys, tmp_path):
    ckpt = tmp_path / "progress.ckpt"
    ckpt.write_text("# n=8 q=7 k=4 dealer_fixed=1\n0, 9223372036854775700, none\n")
    argv = ["search", "--n", "8", "--q", "7", "--k", "4", "--budget", "1000", "--checkpoint", str(ckpt)]
    code, out, err = run(capsys, argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "reaches 2^63" in err


def test_search_result_does_not_depend_on_workers(capsys):
    argv = ["search", "--n", "5", "--q", "2", "--k", "3"]
    results = [report(run(capsys, argv + ["--workers", w])[1])["result"] for w in ("1", "2", "3")]
    assert results[0]["checked"] == 205
    assert results[1] == results[0] and results[2] == results[0]


def test_search_rejects_impossible_k_and_negative_budget(capsys, tmp_path):
    ckpt = tmp_path / "progress.ckpt"
    for extra in (["--k", "0"], ["--k", "4"], ["--k", "5"], ["--k", "2", "--budget", "-5"]):
        code, out, err = run(capsys, ["search", "--n", "4", "--q", "2", *extra, "--checkpoint", str(ckpt)])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert ("outside 1..3" if extra[1] != "2" else "budget") in err
    assert not ckpt.exists()  # refused before the checkpoint is opened


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_search_and_sample_reject_workers_below_one(capsys, tmp_path, workers):
    ckpt = tmp_path / "progress.ckpt"
    for argv in (
        ["search", "--n", "4", "--q", "3", "--k", "2", "--checkpoint", str(ckpt)],
        ["sample", "--n", "5", "--q", "2", "--alpha", "0.6", "--trials", "10", "--seed", "8"],
    ):
        code, out, err = run(capsys, argv + ["--workers", workers])
        assert code == EXIT_PRECONDITION
        assert out == ""
        assert f"workers={workers} is below 1" in err
    assert not ckpt.exists()


# --------------------------------------------------------------------- sample


def test_sample_frozen_summary(capsys):
    code, out, _ = run(
        capsys,
        ["sample", "--n", "6", "--q", "3", "--alpha", "0.8", "--trials", "300", "--seed", "77"],
    )
    assert code == EXIT_OK
    rep = report(out)
    assert rep["seed"] == 77
    assert rep["result"]["successes"] == 252
    assert rep["result"]["success_rate"] == pytest.approx(0.84)


def test_sample_worker_invariance(capsys):
    argv = ["sample", "--n", "5", "--q", "2", "--alpha", "0.6", "--trials", "100", "--seed", "8"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv + ["--workers", "3"])
    assert json.loads(out1)["result"] == json.loads(out2)["result"]


@pytest.mark.parametrize("alpha", ["inf", "nan", "1e308"])
def test_sample_rejects_non_finite_alpha_exit_2(capsys, alpha):
    code, out, err = run(capsys, ["sample", "--n", "5", "--q", "3", "--alpha", alpha, "--trials", "1", "--seed", "1"])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "no finite threshold" in err


# --------------------------------------------------------------------- bounds


def test_bounds_csv_artifact(capsys):
    code, out, _ = run(capsys, ["bounds", "--qmin", "2", "--qmax", "7"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "q,alpha_lower,alpha_random_threshold"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["2", "3", "5", "7"]
    q2 = lines[1].split(",")
    assert float(q2[1]) == pytest.approx(0.5063762, abs=1e-6)
    assert float(q2[2]) == pytest.approx(0.8107104, abs=1e-6)


@pytest.mark.parametrize("qmin, qmax", [("5", "2"), ("24", "28")])
def test_bounds_rejects_a_range_without_primes(capsys, qmin, qmax):
    code, out, err = run(capsys, ["bounds", "--qmin", qmin, "--qmax", qmax])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert f"no prime q in [{qmin}, {qmax}]" in err


@pytest.mark.parametrize("tol", ["inf", "nan", "0"])
def test_bounds_rejects_a_non_finite_or_nonpositive_tol(capsys, tol):
    code, out, err = run(capsys, ["bounds", "--qmin", "2", "--qmax", "3", "--tol", tol])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "tolerance must be finite and positive" in err


# -------------------------------------------------------------------- fixture


def test_fixture_round_trips(capsys):
    code, out, _ = run(capsys, ["fixture", "rs747"])
    assert code == EXIT_OK
    g = parse_graph(out)
    ref = rs747_fixture().graph
    assert g.q == ref.q and (g.gamma == ref.gamma).all()


def test_fixture_rejects_unknown_name(capsys):
    code, _, err = run(capsys, ["fixture", "petersen"])
    assert code == EXIT_PARSE


# -------------------------------------------------------------- oracle-verify


def test_oracle_verify_star_agrees(capsys, star_file):
    code, out, _ = run(capsys, ["oracle-verify", star_file, "--dealer", "0", "--seed", "3"])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["disagreements"] == 0
    assert len(res["rows"]) == 4  # sizes 0..2 over two players
    for row in res["rows"]:
        assert row["verdict_graph"] == row["verdict_oracle"]


def test_oracle_verify_size_cap(capsys, star_file):
    code, out, _ = run(
        capsys, ["oracle-verify", star_file, "--dealer", "0", "--seed", "3", "--max-size", "1"]
    )
    assert code == EXIT_OK
    assert len(report(out)["result"]["rows"]) == 3


# Reports of `oracle-verify --dealer 0` pinned from the per-set implementation
# that preceded the per-graph sweep, minus wall_time. Each row is (B, verdict,
# max_trace_distance, decode_fidelity); every row's graph and oracle verdicts
# agree. The sweep draws the same random numbers and, on reduced states up
# to 27 x 27, does the same float operations in the same order, so every
# float must match exactly. The one row above, q5's (1, 2, 3) on 125 x 125,
# takes its trace distance through one QR of the codeword factors; it was
# re-captured when that route came in (1.000000000000007 -> 1.0000000000000004).
# The decode fidelities were re-captured when the Bell decode came to run on
# stacks of player sets, whose sums run along each row alone: 28 of the 32
# moved, by at most 1.7e-15 (q5's (1, 2) 0.9999999999999983 -> 1.0, (1, 2, 3)
# 1.0000000000000009 -> 0.9999999999999998; q2's (2, 3, 4) 1.0000000000000007
# -> 0.9999999999999999); no verdict or trace distance moved. Re-captured
# when the Bell decode's correction Z^k X^{-l} became a q x q matrix on the
# second ancilla: two q5 fidelities moved by 2.8e-17 (() 0.04955859660037572
# -> 0.04955859660037571, (2, 3) 0.15309321918386545 -> 0.15309321918386543);
# q2 and q3 did not move. Re-captured when a set without both witnesses came
# to take its fidelity |sum_i s_i|^2 / q in closed form, with no decode
# simulated: 21 fidelities moved, all of such sets, by at most 3.3e-16 (q2's
# () 0.7553505920066483 -> 0.7553505920066486 and (2, 3) 0.6973571949614592
# -> 0.6973571949614595, q3's (1, 2) 0.8470895051047745 -> 0.8470895051047748,
# q5's (2,) 0.6727335955441636 -> 0.6727335955441638); no verdict, trace
# distance or fidelity of a decoded set moved. Re-captured when a set with
# q^|B| > 2r, r = q^(players - |B|), came to take its trace distances from the
# thin QR of each codeword pair: 11 max_trace_distance values moved, all of
# such sets, by at most 4.4e-16 (q2's (1, 2, 4) 1.0 -> 1.0000000000000002,
# (1, 3, 4) 1.0 -> 1.0000000000000002, (2, 3, 4) 1.0 -> 1.0000000000000004
# and (1, 2, 3, 4) 1.0 -> 0.9999999999999999; q3's (1, 2)
# 2.641657457251073e-16 -> 3.570703436954399e-16, (1, 3) 1.0000000000000002
# -> 1.0, (2, 3) 1.0000000000000004 -> 1.0000000000000002 and (1, 2, 3) 1.0
# -> 1.0000000000000004; q5's (1, 2) and (1, 3) 1.0000000000000007 ->
# 1.0000000000000004 and (2, 3) 2.1386647320189016e-16 ->
# 3.675631638955471e-16); no verdict or fidelity moved.
ORACLE_PINS = {
    "q2": ("q 2\nn 5\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 3 1\ne 3 4 1\ne 1 4 1\n", 7, "84dd5c0bd4aaaf5b", [
        ((), "no_info", 0.0, 0.7553505920066486),
        ((1,), "no_info", 3.0616169978683824e-17, 0.9828419199896005),
        ((2,), "no_info", 3.061616997868383e-17, 0.9204664815022067),
        ((3,), "no_info", 6.162975822039155e-33, 0.6984592912556628),
        ((4,), "no_info", 0.0, 0.1368931493376472),
        ((1, 2), "partial", 4.3297802811774664e-17, 0.4408468586395986),
        ((1, 3), "partial", 9.681683036350967e-17, 0.7891670977090456),
        ((1, 4), "partial", 1.0, 0.8063034551248726),
        ((2, 3), "partial", 1.0, 0.6973571949614595),
        ((2, 4), "partial", 9.681683036350972e-17, 0.6386497097838781),
        ((3, 4), "partial", 8.650572712760372e-33, 0.2209797077012081),
        ((1, 2, 3), "accessible", 1.0000000000000004, 1.0),
        ((1, 2, 4), "accessible", 1.0000000000000002, 1.0000000000000002),
        ((1, 3, 4), "accessible", 1.0000000000000002, 1.0000000000000004),
        ((2, 3, 4), "accessible", 1.0000000000000004, 0.9999999999999999),
        ((1, 2, 3, 4), "accessible", 0.9999999999999999, 0.9999999999999997),
    ]),
    "q3": ("q 3\nn 4\ne 0 1 1\ne 0 2 2\ne 1 2 1\ne 2 3 1\ne 1 3 2\n", 11, "1e23af1c947a5f54", [
        ((), "no_info", 0.0, 0.7242142759311067),
        ((1,), "no_info", 1.8440577321853656e-16, 0.46697086319033926),
        ((2,), "no_info", 1.816271650468207e-16, 0.6474751590857678),
        ((3,), "partial", 9.829515167218813e-17, 0.10005751301441242),
        ((1, 2), "partial", 3.570703436954399e-16, 0.8470895051047748),
        ((1, 3), "accessible", 1.0, 1.0),
        ((2, 3), "accessible", 1.0000000000000002, 0.9999999999999998),
        ((1, 2, 3), "accessible", 1.0000000000000004, 0.9999999999999998),
    ]),
    "q5": ("q 5\nn 4\ne 0 1 2\ne 0 2 3\ne 1 2 4\ne 2 3 1\n", 5, "c918e658065311fc", [
        ((), "no_info", 0.0, 0.04955859660037569),
        ((1,), "partial", 1.3606863475249125e-16, 0.428507842908208),
        ((2,), "no_info", 1.4512434180810912e-16, 0.6727335955441638),
        ((3,), "no_info", 1.220701126699668e-16, 0.2541843783623137),
        ((1, 2), "accessible", 1.0000000000000004, 1.0),
        ((1, 3), "accessible", 1.0000000000000004, 0.9999999999999998),
        ((2, 3), "partial", 3.675631638955471e-16, 0.1530932191838654),
        ((1, 2, 3), "accessible", 1.0000000000000004, 0.9999999999999998),
    ]),
}


@pytest.mark.parametrize("name, max_size", [("q2", None), ("q2", 2), ("q3", None), ("q3", 1), ("q5", None)])
def test_oracle_verify_reports_pinned(capsys, tmp_path, name, max_size):
    text, seed, digest, pinned = ORACLE_PINS[name]
    path = tmp_path / f"{name}.graph"
    path.write_text(text)
    cap = [] if max_size is None else ["--max-size", str(max_size)]
    code, out, _ = run(capsys, ["oracle-verify", str(path), "--dealer", "0", "--seed", str(seed), *cap])
    assert code == EXIT_OK
    rep = report(out)
    del rep["wall_time"]
    expected = [
        {"graph_hash": digest, "B": list(b), "verdict_graph": verdict, "verdict_oracle": verdict,
         "max_trace_distance": td, "decode_fidelity": fid}
        for b, verdict, td, fid in pinned if max_size is None or len(b) <= max_size
    ]
    assert rep == {"command": "oracle-verify", "inputs": {"graph": str(path), "dealer": 0},
                   "result": {"rows": expected, "disagreements": 0}, "seed": seed}


# The largest oracle shape of the benchmark, q = 2 and n = 6, pinned as the
# sha256 of its JSON rows: 12 accessible, 8 partial and 12 no_info sets.
# Re-captured when the full set's 32 x 32 states took the QR route: its
# max_trace_distance moved 1.0000000000000004 -> 1.0000000000000002. Re-captured
# (4322eeb2... -> b2a4ccf9...) when the Bell decode came to run on stacks of
# player sets: 27 decode fidelities moved, by at most 1.8e-15 (row (2, 3, 5)
# 0.9999999999999982 -> 1.0); nothing else moved. Re-captured (b2a4ccf9... ->
# b3514457...) when a set without both witnesses came to take its fidelity in
# closed form: 20 such fidelities moved, by at most 4.4e-16 (row (4, 5)
# 0.6152868243577475 -> 0.615286824357748); nothing else moved. Re-captured
# (b3514457... -> 11fb5c52...) when a set with q^|B| > 2r came to take its
# trace distances from the thin QR of each codeword pair: four of the sets of
# four players moved their max_trace_distance, by at most 4.4e-16 ((1, 2, 3,
# 5) 1.0000000000000002 -> 0.9999999999999999, (1, 2, 4, 5)
# 1.0000000000000004 -> 1.0000000000000002, (1, 3, 4, 5) 1.0000000000000007
# -> 1.0000000000000002, (2, 3, 4, 5) 1.0000000000000002 ->
# 0.9999999999999998); nothing else moved.
ORACLE_PIN_Q2N6 = (
    "q 2\nn 6\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 4 1\ne 3 5 1\ne 4 5 1\ne 1 4 1\ne 2 5 1\n", 13,
    "11fb5c525bcf0b11afdd81b87f123954a0a7cad2df73d2de9961c4fdb1353689",
)


def test_oracle_verify_report_pinned_q2_n6(capsys, tmp_path):
    text, seed, digest = ORACLE_PIN_Q2N6
    path = tmp_path / "q2n6.graph"
    path.write_text(text)
    code, out, _ = run(capsys, ["oracle-verify", str(path), "--dealer", "0", "--seed", str(seed)])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["disagreements"] == 0 and len(res["rows"]) == 32
    assert hashlib.sha256(json.dumps(res["rows"]).encode()).hexdigest() == digest


# More rows pinned as the sha256 of their JSON, captured before complement
# decodes were skipped: the largest q = 3 and q = 5 oracle shapes of the
# benchmark (its first base graphs of those shapes, 6 accessible, 4 partial
# and 6 no_info sets, and 3, 2 and 3), and the q2n6 graph up to one player,
# whose complements are decoded but never swept as sets themselves. q3n5
# and q5n4 were re-captured when their sets above 27 x 27 took the QR route:
# the full set's max_trace_distance moved 1.0000000000000044 ->
# 0.9999999999999999 on q3n5 (81 x 81) and 1.0000000000000067 ->
# 1.0000000000000009 on q5n4 (125 x 125); no other float moved. All three
# were re-captured when the Bell decode came to run on stacks of player sets
# (q3n5 1f840afd... -> 7110b89f..., q5n4 2a623843... -> 78dd4941..., q2n6-max1
# 23c7960e... -> a5ecb41a...): only decode fidelities moved, by at most
# 6.7e-16. q5n4 was re-captured (78dd4941... -> 0c74d929...) when the Bell
# decode's correction became a q x q matrix on the second ancilla: two
# fidelities moved by 2.8e-17; q3n5 and q2n6-max1 did not move. All three
# were re-captured when a set without both witnesses came to take its
# fidelity |sum_i s_i|^2 / q in closed form (q3n5 7110b89f... -> 26eae5b7...,
# q5n4 0c74d929... -> 76374dbd..., q2n6-max1 a5ecb41a... -> 1c08e59d...): only
# fidelities of such sets moved, 9, 5 and 6 of them, by at most 3.3e-16
# (q2n6-max1's (2,) 0.5458950915344445 -> 0.5458950915344448). q3n5 and q5n4
# were re-captured when a set with q^|B| > 2r came to take its trace
# distances from the thin QR of each codeword pair (q3n5 26eae5b7... ->
# bf81d062..., q5n4 76374dbd... -> 6c074ade...): only max_trace_distance
# moved, by at most 4.4e-16, on q3n5's (1, 2, 4) 0.9999999999999999 -> 1.0,
# (1, 3, 4) 1.0 -> 0.9999999999999999 and (2, 3, 4) 1.0 ->
# 0.9999999999999998, and q5n4's (1, 2) 1.9889398609275328e-16 ->
# 4.019959800458033e-16, (1, 3) and (2, 3) 1.0000000000000004 ->
# 1.0000000000000002 and (1, 2, 3) 1.0000000000000009 -> 1.0000000000000004;
# q2n6-max1 did not move.
ORACLE_PINS_BY_SHA = {
    "q3n5": ("q 3\nn 5\ne 0 3 2\ne 0 4 1\ne 1 2 1\ne 2 3 1\ne 2 4 1\ne 3 4 1\n", 17, [], 16,
             "bf81d062c3cd44253d8569843db451d35638a8d80797c8c12a653f442943f170"),
    "q5n4": ("q 5\nn 4\ne 0 1 3\ne 0 2 1\ne 0 3 1\ne 1 2 2\ne 1 3 3\ne 2 3 1\n", 17, [], 8,
             "6c074ade3d18f2dae0b1c481b6a6a94e93fb0d3480593814e1e73db9761158fb"),
    "q2n6-max1": (ORACLE_PIN_Q2N6[0], 13, ["--max-size", "1"], 6,
                  "1c08e59dc42c204c5090b527aeca4f6e9ea8d32b6f82bb245f9e741aecae1c85"),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PINS_BY_SHA))
def test_oracle_verify_reports_pinned_by_sha(capsys, tmp_path, name):
    text, seed, cap, count, digest = ORACLE_PINS_BY_SHA[name]
    path = tmp_path / f"{name}.graph"
    path.write_text(text)
    code, out, _ = run(capsys, ["oracle-verify", str(path), "--dealer", "0", "--seed", str(seed), *cap])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["disagreements"] == 0 and len(res["rows"]) == count
    assert hashlib.sha256(json.dumps(res["rows"]).encode()).hexdigest() == digest


def test_oracle_verify_isolated_dealer_exit_2(capsys, tmp_path):
    path = tmp_path / "iso.graph"
    path.write_text("q 3\nn 3\ne 1 2 1\n")
    code, out, err = run(capsys, ["oracle-verify", str(path), "--dealer", "0", "--seed", "1"])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "isolated dealer" in err


def test_oracle_verify_rejects_negative_max_size(capsys, star_file):
    code, out, err = run(capsys, ["oracle-verify", star_file, "--dealer", "0", "--seed", "3", "--max-size", "-1"])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--max-size -1" in err


# ------------------------------------------------------------------- cq-round


def test_cq_round_authorized_rounds_agree(capsys, star_file):
    code, out, _ = run(
        capsys,
        ["cq-round", star_file, "--dealer", "0", "--set", "1,2", "--t", "1", "--rounds", "5", "--seed", "9"],
    )
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["total"] == 5 and res["agreements"] == 5
    assert all(r["s"] == r["m"] for r in res["rounds"])


# Eight authorized rounds per basis t on the ORACLE_PINS graphs, pinned from the
# implementation that folded generator powers one at a time. The dealer's
# outcomes s come from the same draws in every basis; each m must equal s.
# q = 2 at t = 1 takes the offset's half XZ weight term, and both odd-q sets have
# beta = 1, so the round operator weights D by 1 - t at t = 1 and 2.
CQ_ROUND_PINS = [
    ("q2", "1,2,3", (1,), 21, [1, 1, 1, 1, 0, 0, 0, 0]),
    ("q3", "1,3", (0, 1, 2), 22, [1, 1, 2, 1, 1, 2, 1, 0]),
    ("q5", "1,3", (0, 1, 2), 23, [3, 0, 1, 2, 0, 1, 3, 3]),
]


@pytest.mark.parametrize("name, vset, t, seed, outcomes",
                         [(name, vset, t, seed, s) for name, vset, ts, seed, s in CQ_ROUND_PINS for t in ts])
def test_cq_round_reports_pinned(capsys, tmp_path, name, vset, t, seed, outcomes):
    path = tmp_path / f"{name}.graph"
    path.write_text(ORACLE_PINS[name][0])
    code, out, _ = run(capsys, ["cq-round", str(path), "--dealer", "0", "--set", vset, "--t", str(t),
                                "--rounds", "8", "--seed", str(seed)])
    assert code == EXIT_OK
    rep = report(out)
    del rep["wall_time"]
    b = [int(v) for v in vset.split(",")]
    assert rep == {
        "command": "cq-round",
        "inputs": {"graph": str(path), "dealer": 0, "set": b, "t": t, "rounds": 8},
        "result": {"rounds": [{"s": s, "m": s} for s in outcomes], "agreements": 8, "total": 8},
        "seed": seed,
    }


def test_qq_decode_report_pinned(capsys, tmp_path):
    path = tmp_path / "q5.graph"
    path.write_text(ORACLE_PINS["q5"][0])
    code, out, _ = run(capsys, ["qq-decode", str(path), "--dealer", "0", "--set", "1,2", "--seed", "31"])
    assert code == EXIT_OK
    rep = report(out)
    del rep["wall_time"]
    assert rep == {
        "command": "qq-decode",
        "inputs": {"graph": str(path), "dealer": 0, "set": [1, 2]},
        "result": {
            # re-captured 1.0000000000000016 -> 1.0000000000000004 when the
            # Bell decode came to run on stacks (sums along each row alone)
            "fidelity": 1.0000000000000004,
            "syndrome": [2, 1],
            "used_fallback": False,
            "secret_real": [-0.174855670195, 0.116738840541, 0.268554197519, -0.43002048874, 0.339564912493],
            "secret_imag": [0.112821182498, 0.34633954905, 0.120500171053, 0.513997083814, -0.414802645028],
        },
        "seed": 31,
    }


def test_cq_round_unauthorized_raise_and_measure(capsys, star_file):
    code, _, err = run(
        capsys, ["cq-round", star_file, "--dealer", "0", "--set", "", "--seed", "4"]
    )
    assert code == EXIT_PRECONDITION
    assert "contract" in err

    code, out, _ = run(
        capsys,
        ["cq-round", star_file, "--dealer", "0", "--set", "", "--seed", "4",
         "--on-unauthorized", "measure", "--rounds", "6"],
    )
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["total"] == 6
    assert 0 <= res["agreements"] <= 6


def test_cq_round_set_without_a_hiding_witness_raise_and_measure(capsys, star_file):
    # player 1 of the star reads the basis-0 secret but has no round-1 decoder
    argv = ["cq-round", star_file, "--dealer", "0", "--set", "1", "--t", "1", "--seed", "4"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "hiding witness" in err

    code, out, _ = run(capsys, [*argv, "--on-unauthorized", "measure", "--rounds", "6"])
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["total"] == 6
    assert 0 <= res["agreements"] <= 6


# Eight --on-unauthorized measure rounds per basis t, as (s, m) pairs: the empty
# set and a set without a hiding witness on the star, and B = {2} on the path
# 0-1-2, which is blocked (pi = 0), at q = 3 and q = 5. Pinned from the
# implementation that measured the dealer in a table of X^t Z eigenvectors and
# the players in the computational basis.
STAR = "q 3\nn 3\ne 0 1 1\ne 0 2 1\n"
MEASURE_PINS = [
    (STAR, "", (0,), 4, [(2, 0), (1, 0), (2, 0), (0, 0), (1, 0), (1, 0), (2, 0), (0, 0)]),
    (STAR, "1", (1,), 4, [(2, 2), (2, 0), (1, 2), (2, 0), (2, 2), (2, 2), (1, 1), (2, 2)]),
    ("q 3\nn 3\ne 0 1 1\ne 1 2 1\n", "2", (0, 1, 2), 41,
     [(2, 1), (0, 1), (2, 2), (1, 2), (1, 2), (2, 1), (1, 2), (1, 1)]),
    ("q 5\nn 3\ne 0 1 1\ne 1 2 1\n", "2", (0, 2, 4), 43,
     [(3, 0), (0, 1), (2, 4), (3, 4), (2, 3), (4, 1), (1, 4), (2, 0)]),
]


@pytest.mark.parametrize("text, vset, t, seed, pairs",
                         [(text, vset, t, seed, p) for text, vset, ts, seed, p in MEASURE_PINS for t in ts])
def test_cq_round_measure_reports_pinned(capsys, tmp_path, text, vset, t, seed, pairs):
    path = tmp_path / "g.graph"
    path.write_text(text)
    code, out, _ = run(capsys, ["cq-round", str(path), "--dealer", "0", "--set", vset, "--t", str(t),
                                "--rounds", "8", "--seed", str(seed), "--on-unauthorized", "measure"])
    assert code == EXIT_OK
    rep = report(out)
    del rep["wall_time"]
    assert rep == {
        "command": "cq-round",
        "inputs": {"graph": str(path), "dealer": 0, "set": [int(v) for v in vset.split(",") if v], "t": t,
                   "rounds": 8},
        "result": {"rounds": [{"s": s, "m": m} for s, m in pairs],
                   "agreements": sum(s == m for s, m in pairs), "total": 8},
        "seed": seed,
    }


def test_cq_round_rejects_negative_rounds(capsys, star_file):
    code, out, err = run(capsys, ["cq-round", star_file, "--dealer", "0", "--set", "1,2", "--seed", "4",
                                  "--rounds", "-3"])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--rounds -3" in err


# ------------------------------------------------------------------ qq-decode


def test_qq_decode_authorized(capsys, star_file):
    code, out, _ = run(
        capsys, ["qq-decode", star_file, "--dealer", "0", "--set", "1,2", "--seed", "5"]
    )
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["fidelity"] >= 1 - 1e-9
    assert res["syndrome"] == [1, 0]
    assert res["used_fallback"] is False
    assert len(res["secret_real"]) == 3 and len(res["secret_imag"]) == 3


def test_qq_decode_partial_set_fallback(capsys, star_file):
    code, out, _ = run(
        capsys, ["qq-decode", star_file, "--dealer", "0", "--set", "1", "--seed", "5"]
    )
    assert code == EXIT_OK
    res = report(out)["result"]
    assert res["used_fallback"] is True
    assert res["fidelity"] == pytest.approx(0.7122855504, abs=1e-9)
    assert res["fidelity"] < 1 - 1e-9


def test_qq_decode_admits_the_decode_before_encoding(capsys, monkeypatch, rs_file, tmp_path):
    # rs747's decode needs 7^9 amplitudes, over the default budget: the
    # check comes before qq_encode builds a codeword, so it is never called
    def never(*args, **kwargs):
        raise AssertionError("qq_encode called past the decode budget")

    monkeypatch.setattr(cli, "qq_encode", never)
    code, out, err = run(capsys, ["qq-decode", rs_file, "--dealer", "0", "--set", "1,2,3,4", "--seed", "1"])
    assert (code, out) == (EXIT_BUDGET, "")
    assert err == f"error: {7**9} amplitudes exceed the budget of 2000000\n"

    # so an isolated dealer over the budget is a budget error, not exit 2
    path = tmp_path / "iso.graph"
    path.write_text("q 3\nn 3\ne 1 2 1\n")
    code, _, err = run(capsys, ["qq-decode", str(path), "--dealer", "0", "--set", "1", "--seed", "1", "--budget", "80"])
    assert code == EXIT_BUDGET and "81 amplitudes exceed" in err


# ------------------------------------------------------- parser reuse, argv


def test_main_builds_the_parser_once(capsys, monkeypatch, star_file):
    # subparsers are _Parser instances too; only the top-level one has prog "qss"
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv in (["scheme-k", star_file, "--dealer", "0"], ["fixture", "rs747"], ["access"],
                 ["access", star_file, "--dealer", "0", "--set", "1"], ["scheme-k", star_file, "--dealer", "0"]):
        run(capsys, argv)
    assert built.count("qss") == 1
    assert cli.build_parser() is cli.build_parser()


def test_reused_parser_leaks_nothing_between_calls(capsys, star_file):
    # optional flags set in one call and absent in the next, with a parse
    # error between them; each call must match the same call on a fresh parser
    calls = [
        ["search", "--n", "3", "--q", "3", "--k", "2", "--all-dealers"],
        ["search", "--n", "3", "--q", "3", "--k", "2"],
        ["oracle-verify", star_file, "--dealer", "0", "--seed", "3", "--max-size", "1"],
        ["search", "--n", "3", "--q", "3", "--k", "two"],
        ["oracle-verify", star_file, "--dealer", "0", "--seed", "3"],
        ["cq-round", star_file, "--dealer", "0", "--set", "", "--seed", "4", "--rounds", "3",
         "--on-unauthorized", "measure"],
        ["cq-round", star_file, "--dealer", "0", "--set", "", "--seed", "4", "--rounds", "3"],
    ]

    def outcome(argv):
        code, out, err = run(capsys, argv)
        rep = json.loads(out) if out else None
        if rep:
            del rep["wall_time"]
        return code, rep, err

    reused = [outcome(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_PARSE, EXIT_OK, EXIT_OK,
                                               EXIT_PRECONDITION]
    assert reused[0][1]["result"]["index"] != reused[1][1]["result"]["index"]
    assert len(reused[2][1]["result"]["rows"]) == 3 and len(reused[4][1]["result"]["rows"]) == 4


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch, tmp_path):
    # the qss console script calls main() with no argument
    monkeypatch.setattr("sys.argv", ["qss", "fixture", "rs747"])
    assert main() == EXIT_OK
    text = capsys.readouterr().out
    g, ref = parse_graph(text), rs747_fixture().graph
    assert g.q == ref.q and (g.gamma == ref.gamma).all()

    path = tmp_path / "rs.graph"
    path.write_text(text)
    monkeypatch.setattr("sys.argv", ["qss", "scheme-k", str(path), "--dealer", "7"])
    assert main() == EXIT_OK
    assert report(capsys.readouterr().out)["result"]["k"] == 4


SEED_ARGS = {
    "sample": ["--n", "5", "--q", "3", "--alpha", "0.75", "--trials", "4"],
    "oracle-verify": ["--dealer", "0"],
    "cq-round": ["--dealer", "0", "--set", "1,2"],
    "qq-decode": ["--dealer", "0", "--set", "1,2"],
}


@pytest.mark.parametrize("command", sorted(SEED_ARGS))
def test_negative_seed_exit_2_names_the_flag(capsys, star_file, command):
    graph = [] if command == "sample" else [star_file]
    code, out, err = run(capsys, [command, *graph, *SEED_ARGS[command], "--seed", "-1"])
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--seed -1 is negative" in err


BUDGET_ARGS = {
    "search": ["--n", "4", "--q", "2", "--k", "2"],
    "oracle-verify": ["{graph}", "--dealer", "0", "--seed", "1"],
    "cq-round": ["{graph}", "--dealer", "0", "--set", "1,2", "--seed", "1"],
    "qq-decode": ["{graph}", "--dealer", "0", "--set", "1,2", "--seed", "1"],
}


@pytest.mark.parametrize("command", sorted(BUDGET_ARGS))
def test_negative_budget_exit_2_before_any_file_is_read(capsys, tmp_path, command):
    # the graph file does not exist: a read would fail with another message
    missing = str(tmp_path / "never_read.graph")
    argv = [command, *[a.format(graph=missing) for a in BUDGET_ARGS[command]], "--budget", "-5"]
    code, out, err = run(capsys, argv)
    assert code == EXIT_PRECONDITION
    assert out == ""
    assert "--budget -5 is negative" in err


def test_exit_code_constants_are_distinct():
    codes = [EXIT_OK, EXIT_PARSE, EXIT_PRECONDITION, EXIT_BUDGET, EXIT_DISAGREEMENT]
    assert codes == sorted(codes) == [0, 1, 2, 3, 4]


# ---------------------------------------------------------------- option table

# each subcommand's dest -> (option strings, type, default, required,
# choices, action class); a parser refactor that adds, drops or changes an
# option fails here. The order of --help's listing is not pinned.
HELP = (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction")
GRAPH = ((), None, None, True, None, "_StoreAction")
DEALER = (("--dealer",), "int", None, True, None, "_StoreAction")
VSET = (("--set",), None, None, True, None, "_StoreAction")
SEED = (("--seed",), "int", None, True, None, "_StoreAction")
AMPLITUDES = (("--budget",), "int", 2_000_000, False, None, "_StoreAction")
OPTION_TABLE = {
    "access": {"help": HELP, "graph": GRAPH, "dealer": DEALER, "vset": VSET},
    "scheme-k": {"help": HELP, "graph": GRAPH, "dealer": DEALER},
    "search": {
        "help": HELP,
        "n": (("--n",), "int", None, True, None, "_StoreAction"),
        "q": (("--q",), "int", None, True, None, "_StoreAction"),
        "k": (("--k",), "int", None, True, None, "_StoreAction"),
        "budget": (("--budget",), "int", None, False, None, "_StoreAction"),
        "workers": (("--workers",), "int", 1, False, None, "_StoreAction"),
        "checkpoint": (("--checkpoint",), None, None, False, None, "_StoreAction"),
        "all_dealers": (("--all-dealers",), None, False, False, None, "_StoreTrueAction"),
    },
    "sample": {
        "help": HELP,
        "n": (("--n",), "int", None, True, None, "_StoreAction"),
        "q": (("--q",), "int", None, True, None, "_StoreAction"),
        "alpha": (("--alpha",), "float", None, True, None, "_StoreAction"),
        "trials": (("--trials",), "int", None, True, None, "_StoreAction"),
        "seed": SEED,
        "workers": (("--workers",), "int", 1, False, None, "_StoreAction"),
    },
    "bounds": {
        "help": HELP,
        "qmin": (("--qmin",), "int", None, True, None, "_StoreAction"),
        "qmax": (("--qmax",), "int", None, True, None, "_StoreAction"),
        "tol": (("--tol",), "float", 1e-08, False, None, "_StoreAction"),
    },
    "oracle-verify": {
        "help": HELP, "graph": GRAPH, "dealer": DEALER, "seed": SEED,
        "max_size": (("--max-size",), "int", None, False, None, "_StoreAction"),
        "budget": AMPLITUDES,
    },
    "fixture": {"help": HELP, "name": ((), None, None, True, ("rs747",), "_StoreAction")},
    "cq-round": {
        "help": HELP, "graph": GRAPH, "dealer": DEALER, "vset": VSET, "seed": SEED, "budget": AMPLITUDES,
        "t": (("--t",), "int", 0, False, None, "_StoreAction"),
        "rounds": (("--rounds",), "int", 10, False, None, "_StoreAction"),
        "on_unauthorized": (("--on-unauthorized",), None, "raise", False, ("raise", "measure"), "_StoreAction"),
    },
    "qq-decode": {"help": HELP, "graph": GRAPH, "dealer": DEALER, "vset": VSET, "seed": SEED, "budget": AMPLITUDES},
}


def test_option_table_is_pinned():
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert sub.required and list(sub.choices) == list(OPTION_TABLE)
    table = {
        name: {a.dest: (tuple(a.option_strings), getattr(a.type, "__name__", a.type), a.default, a.required,
                        None if a.choices is None else tuple(a.choices), type(a).__name__) for a in parser._actions}
        for name, parser in sub.choices.items()
    }
    assert table == OPTION_TABLE


# arguments after the subcommand that parse; the graph file is never opened
PARSE_ARGS = {
    "access": ["g", "--dealer", "0", "--set", "1"],
    "scheme-k": ["g", "--dealer", "0"],
    "search": ["--n", "3", "--q", "3", "--k", "2", "--all-dealers"],
    "sample": ["--n", "5", "--q", "3", "--alpha", "0.75", "--trials", "4", "--seed", "1"],
    "bounds": ["--qmin", "2", "--qmax", "5"],
    "oracle-verify": ["g", "--dealer", "0", "--seed", "3", "--max-size", "1"],
    "fixture": ["rs747"],
    "cq-round": ["g", "--dealer", "0", "--set", "1", "--seed", "4", "--on-unauthorized", "measure"],
    "qq-decode": ["g", "--dealer", "0", "--set", "1", "--seed", "1"],
}


@pytest.mark.parametrize("command", list(OPTION_TABLE))
def test_main_parses_as_the_top_level_parser(capsys, monkeypatch, command):
    # main parses a subcommand with that subcommand's own parser; the
    # Namespace, stderr text and exit code must be the top-level parse's,
    # for a parse and for each kind of parse error
    assert set(PARSE_ARGS) == set(OPTION_TABLE)
    args = PARSE_ARGS[command]
    calls = [[command, *args], [command], [command, *args, "--bogus"], [command, *args[:-1], "--dealer"], [],
             ["bogus", *args]]
    parser = cli.build_parser()
    want = []
    for argv in calls:
        try:
            want.append((parser.parse_args(argv), "", EXIT_OK))
        except cli._ParseError as exc:
            want.append((None, f"error: {exc}\n", EXIT_PARSE))
    assert want[0][0].command == command and [code for *_, code in want[1:]] == [EXIT_PARSE] * 5
    parsed = []
    monkeypatch.setattr(cli, "_run", lambda namespace: parsed.append(namespace) or EXIT_OK)
    got = []
    for argv in calls:
        parsed.clear()
        code, out, err = run(capsys, argv)
        assert out == ""
        got.append((parsed[0] if parsed else None, err, code))
    assert got == want
    # the top-level parser's own pass is skipped for a subcommand
    monkeypatch.setattr(parser, "parse_args", None)
    assert main([command, *args]) == EXIT_OK
