"""End-to-end tests of the command-line interface.

Commands run in process through cli.main so exit codes and stdout are
checked directly. The packaging tests run the command as a separate
process: once through ``python -m``, and once through a launcher written
from the ``[project.scripts]`` entry in pyproject.toml, the way an
installer writes it, so the declared console script is checked to run
cli.main and pass its exit code through without installing the package.
"""

import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from fractions import Fraction
from pathlib import Path

import pytest

import lattice_games
from lattice_games import cli, coresep
from lattice_games.lattice import Lattice, SizeLimitError, bell, lattice_for
from lattice_games.transform import (LatticeGame, MobiusCoefficients, _format_ratio,
                                     _IntView)


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def pair_game_file(tmp_path):
    return write_json(tmp_path / "pair.json", {
        "lattice": "P^N", "n": 3,
        "values": {"1|2|3": "0", "1,2|3": "1", "1,3|2": "0",
                   "1|2,3": "0", "1,2,3": "1"}})


def rank_game_file(tmp_path):
    return write_json(tmp_path / "rank.json", {
        "lattice": "P^N", "n": 3,
        "values": {"1|2|3": "0", "1,2|3": "1", "1,3|2": "1",
                   "1|2,3": "1", "1,2,3": "2"}})


def trace_file(tmp_path):
    return write_json(tmp_path / "trace.json", {
        "n": 3,
        "periods": [
            {"period": "t0", "volumes": {"1,2": "4", "1,3": "1", "2,3": "0"}},
            {"period": "t1", "volumes": {"1,2": "4", "1,3": "1"},
             "clustering": "1,2|3"},
        ]})


# ---------------------------------------------------------------------------
# solve


def test_solve_cu_on_pair_game(tmp_path, capsys):
    code, out, _ = run_cli(["solve", pair_game_file(tmp_path), "--solver", "cu"],
                           capsys)
    assert code == 0
    report = json.loads(out)
    assert report["shares"] == {"1,2|3": "2/3", "1,3|2": "1/6", "1|2,3": "1/6"}
    assert report["efficiencyCheck"] == "1"
    assert report["bottomShift"] == "0"


def test_solve_su_with_node_split(tmp_path, capsys):
    code, out, _ = run_cli(["solve", rank_game_file(tmp_path),
                            "--solver", "su", "--split", "equal"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["shares"] == {"1,2|3": "2/3", "1,3|2": "2/3", "1|2,3": "2/3"}
    assert report["nodeShares"] == {"1": "2/3", "2": "2/3", "3": "2/3"}


def test_solve_reports_are_byte_identical(tmp_path, capsys):
    argv = ["solve", pair_game_file(tmp_path), "--solver", "cu"]
    _, first, _ = run_cli(argv, capsys)
    _, second, _ = run_cli(argv, capsys)
    assert first == second


def test_solve_csv_marks_approximations(tmp_path, capsys):
    code, out, _ = run_cli(["solve", pair_game_file(tmp_path),
                            "--solver", "cu", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,key,value,approx"
    assert 'share,"1,2|3",2/3,0.6666666666666666' in lines
    assert "efficiency,,1,1.0" in lines


def test_csv_leaves_the_approximation_empty_beyond_float_range(tmp_path, capsys):
    huge = str(10 ** 400)
    game = write_json(tmp_path / "huge.json", {
        "lattice": "P^N", "n": 2, "values": {"1|2": "0", "1,2": huge}})
    code, out, _ = run_cli(["solve", game, "--format", "csv"], capsys)
    assert code == 0
    assert f'share,"1,2",{huge},' in out.splitlines()
    assert f"efficiency,,{huge}," in out.splitlines()
    trace = write_json(tmp_path / "huge_trace.json", {
        "n": 2, "periods": [{"period": "t0", "volumes": {"1,2": huge}}]})
    code, out, _ = run_cli(["netshare", trace, "--format", "csv"], capsys)
    assert code == 0
    assert f't0,edgeShare,"1,2",{huge},' in out.splitlines()
    assert f"t0,nodeShare,1,{10 ** 400 // 2}," in out.splitlines()


def test_csv_approximation_is_the_float_of_the_printed_value():
    """_approx reads (p, d) as repr(float(Fraction(text))) reads the text
    printed from it: signed, unreduced, integer, huge and tiny values, and
    an empty cell for a value past a float's range."""
    rng = random.Random(17)
    big = 10 ** 400
    cases = [(0, 1), (0, 7), (5, 1), (-5, 1), (6, 4), (-6, 4), (1, 3), (-2, 3),
             (big, 3 * big), (-(big + 1), big), (1, big), (-1, big), (3, 7 * big),
             (big, 1), (-big, 7), (2 ** 1024, 1), (2 ** 1024 - 2 ** 970, 1),
             (2 ** 1024 - 2 ** 971, 1), (-(2 ** 1100), 2 ** 77), (2 ** 53 + 1, 1),
             (1, 2 ** 1074), (1, 2 ** 1075), (3, 2 ** 1076)]
    cases += [(rng.randint(-10 ** 60, 10 ** 60), rng.randint(1, 10 ** rng.randint(0, 60)))
              for _ in range(300)]
    for p, d in cases:
        text = _format_ratio(p, d)
        try:
            want = repr(float(Fraction(text)))
        except OverflowError:
            want = ""
        assert cli._approx(p, d) == want, (p, d)
    assert cli._approx(big, 1) == cli._approx(-big, 7) == ""


def test_egalitarian_on_a_lattice_without_atoms(tmp_path, capsys):
    game = write_json(tmp_path / "one.json", {"lattice": "P^N", "n": 1, "values": {"1": "5"}})
    code, out, _ = run_cli(["solve", game, "--solver", "egalitarian"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["shares"] == {} and report["efficiencyCheck"] == "0"
    trace = write_json(tmp_path / "one_trace.json", {
        "n": 1, "periods": [{"period": "t0", "volumes": {}}]})
    code, out, _ = run_cli(["netshare", trace, "--solver", "egalitarian"], capsys)
    assert code == 0
    (period,) = json.loads(out)["periods"]
    assert period["edgeShares"] == {} and period["efficiencyCheck"] == "0"
    assert period["fixedPoint"] is True


def test_solve_bottom_normalization_note(tmp_path, capsys):
    game = write_json(tmp_path / "shifted.json", {
        "lattice": "2^N", "n": 2,
        "values": {"": "2", "1": "3", "2": "2", "1,2": "5"}})
    _, out, _ = run_cli(["solve", game, "--solver", "shapley"], capsys)
    report = json.loads(out)
    assert report["bottomShift"] == "2"
    assert report["shares"] == {"1": "2", "2": "1"}
    _, out, _ = run_cli(["solve", game, "--solver", "shapley",
                         "--no-bottom-normalize"], capsys)
    assert json.loads(out)["bottomShift"] == "0"


def test_solve_with_cluster_file(tmp_path, capsys):
    cluster = write_json(tmp_path / "cluster.json", "1,2|3")
    game = write_json(tmp_path / "z13.json", {
        "lattice": "P^N", "n": 3,
        "values": {"1|2|3": "0", "1,2|3": "0", "1,3|2": "1",
                   "1|2,3": "0", "1,2,3": "1"}})
    code, out, _ = run_cli(["solve", game, "--solver", "su",
                            "--cluster-file", cluster], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["clustering"] == "1,2|3"
    assert set(report["shares"].values()) == {"0"}


def test_solve_myerson_on_a_path(tmp_path, capsys):
    game = write_json(tmp_path / "z13sub.json", {
        "lattice": "2^N", "n": 3,
        "values": {"": "0", "1": "0", "2": "0", "3": "0",
                   "1,2": "0", "1,3": "1", "2,3": "0", "1,2,3": "1"}})
    graph = write_json(tmp_path / "path.json", {"edges": [[1, 2], [2, 3]]})
    code, out, _ = run_cli(["solve", game, "--solver", "myerson",
                            "--graph-file", graph], capsys)
    assert code == 0
    assert json.loads(out)["shares"] == {"1": "1/3", "2": "1/3", "3": "1/3"}


def test_solve_myerson_needs_a_graph(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {
        "lattice": "2^N", "n": 2,
        "values": {"": "0", "1": "0", "2": "0", "1,2": "1"}})
    code, _, err = run_cli(["solve", game, "--solver", "myerson"], capsys)
    assert code == 2
    assert "--graph-file" in err


def test_solve_graph_file_needs_myerson(tmp_path, capsys):
    game = write_json(tmp_path / "g.json", {
        "lattice": "2^N", "n": 2,
        "values": {"": "0", "1": "0", "2": "0", "1,2": "1"}})
    graph = write_json(tmp_path / "graph.json", {"edges": [[1, 2]]})
    for solver in ([], ["--solver", "su"], ["--solver", "cu"]):
        code, out, err = run_cli(["solve", game, "--graph-file", graph, *solver], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--graph-file" in err


# ---------------------------------------------------------------------------
# core


def test_core_empty_with_certificate(tmp_path, capsys):
    code, out, _ = run_cli(["core", rank_game_file(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "empty"
    assert report["certificate"]["efficiency"] == "-1"
    assert set(report["certificate"]["lowerBounds"].values()) == {"1"}
    assert report["supermodular"] is True
    assert report["totallyPositive"] is False
    assert report["negativeDividendAt"] == "1,2,3"
    assert report["violated"] == []


def test_core_nonempty_with_witness(tmp_path, capsys):
    game = write_json(tmp_path / "size.json", {
        "lattice": "P^N", "n": 3,
        "values": {"1|2|3": "0", "1,2|3": "1", "1,3|2": "1",
                   "1|2,3": "1", "1,2,3": "3"}})
    code, out, _ = run_cli(["core", game], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "nonempty"
    assert set(report["witness"]) == {"1,2|3", "1,3|2", "1|2,3"}
    assert report["supermodular"] is True
    assert report["totallyPositive"] is True


def test_core_csv_lists_certificate_rows(tmp_path, capsys):
    code, out, _ = run_cli(["core", rank_game_file(tmp_path),
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,key,value,approx"
    assert "status,,empty," in lines
    assert "certificateEfficiency,,-1,-1.0" in lines


# core's reports on this game before it read supermodularity off total
# positivity, byte for byte.
DIVIDEND_CORE_JSON = """\
{
  "command": "core",
  "lattice": "E^N",
  "n": 2,
  "status": "nonempty",
  "witness": {
    "1;1|2": "1",
    "2;1|2": "2",
    ";1,2": "2"
  },
  "violated": [],
  "normalized": true,
  "bottomShift": "0",
  "supermodular": true,
  "supermodularWitness": null,
  "totallyPositive": true,
  "negativeDividendAt": null
}
"""
DIVIDEND_CORE_CSV = """\
kind,key,value,approx
meta,lattice,E^N,
meta,n,2,
status,,nonempty,
supermodular,,true,
totallyPositive,,true,
witness,1;1|2,1,1.0
witness,2;1|2,2,2.0
witness,";1,2",2,2.0
"""


def test_core_reads_supermodularity_off_total_positivity(tmp_path, capsys, monkeypatch):
    """A totally positive game (dividends 1/2, 1, 2, 3/2 above the bottom)
    is reported supermodular with no pair scan, in the same bytes; a game
    with a negative dividend still runs the scan."""
    game = write_json(tmp_path / "dividend.json", {
        "lattice": "E^N", "n": 2,
        "values": {";1|2": "0", "2;1|2": "1/2", "1;1|2": "1", ";1,2": "2",
                   "1,2;1,2": "5"}})

    def no_scan(game):
        raise AssertionError("supermodularity scan")

    monkeypatch.setattr(cli, "is_supermodular", no_scan)
    assert run_cli(["core", game], capsys) == (0, DIVIDEND_CORE_JSON, "")
    assert run_cli(["core", game, "--format", "csv"], capsys) == (0, DIVIDEND_CORE_CSV, "")
    with pytest.raises(AssertionError, match="supermodularity scan"):
        cli.main(["core", rank_game_file(tmp_path)])


# ---------------------------------------------------------------------------
# netshare


def test_netshare_shares_traffic_volumes(tmp_path, capsys):
    code, out, _ = run_cli(["netshare", trace_file(tmp_path)], capsys)
    assert code == 0
    report = json.loads(out)
    t0, t1 = report["periods"]
    assert t0["edgeShares"] == {"1,2": "4", "1,3": "1", "2,3": "0"}
    assert t0["nodeShares"] == {"1": "5/2", "2": "2", "3": "1/2"}
    assert t0["efficiencyCheck"] == "5"
    assert t0["fixedPoint"] is True
    assert t0["clustering"] is None
    assert t1["edgeShares"] == {"1,2": "4", "1,3": "0", "2,3": "0"}
    assert t1["clustering"] == "1,2|3"


def test_netshare_cluster_file_overrides_trace(tmp_path, capsys):
    cluster = write_json(tmp_path / "clusters.json", {"t0": "1,2|3"})
    _, out, _ = run_cli(["netshare", trace_file(tmp_path),
                         "--cluster-file", cluster], capsys)
    t0 = json.loads(out)["periods"][0]
    assert t0["clustering"] == "1,2|3"
    assert t0["edgeShares"] == {"1,2": "4", "1,3": "0", "2,3": "0"}


def test_netshare_cluster_file_keys_must_name_periods(tmp_path, capsys):
    """A key matches a period by its label as text; an unlabelled JSON
    period is labelled by its position."""
    trace = write_json(tmp_path / "trace.json", {"n": 3, "periods": [
        {"volumes": {"1,2": "4", "1,3": "1"}}]})
    cluster = write_json(tmp_path / "clusters.json", {"0": "1,2|3"})
    code, out, _ = run_cli(["netshare", trace, "--cluster-file", cluster], capsys)
    assert code == 0
    assert json.loads(out)["periods"][0]["clustering"] == "1,2|3"
    cluster = write_json(tmp_path / "clusters.json", {"0": "1,2|3", "t9": "1|2,3"})
    code, out, err = run_cli(["netshare", trace, "--cluster-file", cluster], capsys)
    assert (code, out) == (2, "")
    assert "'t9'" in err


def test_netshare_single_cluster_applies_everywhere(tmp_path, capsys):
    cluster = write_json(tmp_path / "one.json", "1|2,3")
    _, out, _ = run_cli(["netshare", trace_file(tmp_path),
                         "--cluster-file", cluster], capsys)
    report = json.loads(out)
    assert all(p["clustering"] == "1|2,3" for p in report["periods"])
    assert report["periods"][0]["edgeShares"] == {"1,2": "0", "1,3": "0",
                                                  "2,3": "0"}


def test_netshare_reads_csv_traces(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("period,i,j,volume\n"
                     "t0,1,2,4\n"
                     "t0,3,1,1\n"
                     "t0,2,3,0\n", encoding="utf-8")
    _, out, _ = run_cli(["netshare", str(trace)], capsys)
    t0 = json.loads(out)["periods"][0]
    assert t0["edgeShares"] == {"1,2": "4", "1,3": "1", "2,3": "0"}


def test_netshare_weighted_split(tmp_path, capsys):
    weights = write_json(tmp_path / "w.json", {
        "1,2": ["3/4", "1/4"], "1,3": ["1", "0"], "2,3": ["1/2", "1/2"]})
    _, out, _ = run_cli(["netshare", trace_file(tmp_path),
                         "--split", weights], capsys)
    t0 = json.loads(out)["periods"][0]
    assert t0["nodeShares"] == {"1": "4", "2": "1", "3": "0"}


def test_netshare_csv_output(tmp_path, capsys):
    code, out, _ = run_cli(["netshare", trace_file(tmp_path),
                            "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "period,kind,key,value,approx"
    assert 't0,edgeShare,"1,2",4,4.0' in lines
    assert "t0,fixedPoint,,true," in lines


def test_netshare_rejects_bad_traces(tmp_path, capsys):
    cases = [
        {"n": 3, "periods": [{"volumes": {"1,4": "2"}}]},
        {"n": 3, "periods": [{"volumes": {"1,1": "2"}}]},
        {"n": 3, "periods": [{"volumes": {"1,2": "-1"}}]},
        {"n": 3, "periods": [{"volumes": {"1,2": "1", "2,1": "2"}}]},
        {"n": 3, "periods": [{"volumes": {"1,2": "0.5"}}]},
    ]
    for idx, payload in enumerate(cases):
        trace = write_json(tmp_path / f"bad{idx}.json", payload)
        code, _, err = run_cli(["netshare", trace], capsys)
        assert code == 2, f"case {idx} accepted: {err}"


def test_netshare_csv_and_json_traces_give_the_same_report(tmp_path, capsys):
    volumes = {"t0": {"1,2": "4", "1,3": "1/2", "3,4": "2"},
               "t1": {"2,4": "3", "1,4": "0"}}
    json_trace = write_json(tmp_path / "trace.json", {
        "n": 4, "periods": [{"period": label, "volumes": vols}
                            for label, vols in volumes.items()]})
    csv_trace = tmp_path / "trace.csv"
    csv_trace.write_text("period,i,j,volume\n" + "".join(
        f"{label},{key},{text}\n"
        for label, vols in volumes.items() for key, text in vols.items()), encoding="utf-8")
    clusters = write_json(tmp_path / "clusters.json", {"t1": "1,2,4|3"})
    for extra in ([], ["--cluster-file", clusters], ["--solver", "cu"]):
        code, from_json, _ = run_cli(["netshare", json_trace, *extra], capsys)
        assert code == 0
        code, from_csv, _ = run_cli(["netshare", str(csv_trace), *extra], capsys)
        assert code == 0
        assert from_csv == from_json


def test_netshare_rejects_an_edge_named_twice_in_either_form(tmp_path, capsys):
    json_trace = write_json(tmp_path / "dup.json", {
        "n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1", "2,1": "2"}}]})
    csv_trace = tmp_path / "dup.csv"
    csv_trace.write_text("period,i,j,volume\nt0,1,2,1\nt0,2,1,2\n", encoding="utf-8")
    for trace in (json_trace, str(csv_trace)):
        code, out, err = run_cli(["netshare", trace], capsys)
        assert code == 2
        assert out == ""
        assert "duplicate edge 2,1" in err


class JSONText(str):
    """A main input written as it stands to a .json file: json.dumps cannot
    write nesting this deep."""


MALFORMED = {
    "trace-clustering-not-a-key": (
        "netshare", {"n": 3, "periods": [{"volumes": {"1,2": "1"}, "clustering": 5}]},
        None, None),
    "cluster-file-value-not-a-key": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"}}]},
        "--cluster-file", {"t0": 5}),
    "periods-not-a-list": ("netshare", {"n": 3, "periods": 5}, None, None),
    "graph-edge-not-a-pair": (
        "solve", {"lattice": "2^N", "n": 2, "values": {"": "0", "1": "0", "2": "0", "1,2": "1"}},
        "--graph-file", {"edges": [1, 2]}),
    "graph-edge-with-a-bool": (
        "solve", {"lattice": "2^N", "n": 2, "values": {"": "0", "1": "0", "2": "0", "1,2": "1"}},
        "--graph-file", {"edges": [[2, True]]}),
    "cluster-file-empty-string": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"}}]},
        "--cluster-file", ""),
    "cluster-file-null-key": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"},
                                          "clustering": "1,2|3"}]},
        "--cluster-file", {"t0": None}),
    "cluster-file-empty-key": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"}}]},
        "--cluster-file", {"t0": ""}),
    "trace-names-a-period-twice": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"}},
                                         {"period": "t0", "volumes": {"1,3": "1"}}]},
        None, None),
    "cluster-file-names-no-period": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"}}]},
        "--cluster-file", {"t9": "1,2|3"}),
    "weights-name-an-edge-twice": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"}}]},
        "--split", {"1,2": ["1", "0"], "2,1": ["0", "1"]}),
    "weights-do-not-sum-to-one": (
        "netshare", {"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "1"}}]},
        "--split", {"1,2": ["1/2", "1/3"]}),
    "game-file-stray-key": (
        "solve", {"lattice": "2^N", "n": 1, "values": {"": "0", "1": "5"}, "normalise": False},
        None, None),
    "graph-file-stray-key": (
        "solve", {"lattice": "2^N", "n": 3, "values": {"": "0", "1": "0", "2": "0", "3": "0",
                                                        "1,2": "1", "1,3": "0", "2,3": "0",
                                                        "1,2,3": "1"}},
        "--graph-file", {"edges": [[1, 2]], "edge": [[2, 3]]}),
    "cluster-file-stray-key": (
        "solve", {"lattice": "2^N", "n": 2, "values": {"": "0", "1": "0", "2": "0", "1,2": "1"}},
        "--cluster-file", {"cluster": "1,2", "clustre": "x"}),
    # numbers in text are ASCII digits: int() alone would read these
    "game-value-in-arabic-indic-digits": (
        "solve", {"lattice": "2^N", "n": 1, "values": {"": "0", "1": "\u0661/\u0662"}},
        None, None),
    "game-value-in-a-fullwidth-digit": (
        "solve", {"lattice": "2^N", "n": 1, "values": {"": "0", "1": "\uff11"}}, None, None),
    "game-key-in-an-arabic-indic-digit": (
        "solve", {"lattice": "2^N", "n": 1, "values": {"": "0", "\u0661": "1"}}, None, None),
    "trace-edge-key-in-an-arabic-indic-digit": (
        "netshare", {"n": 3, "periods": [{"volumes": {"\u0662,3": "1"}}]}, None, None),
    "trace-csv-node-with-an-underscore": (
        "netshare", "period,i,j,volume\nt0,1_0,2,1\n", None, None),
    "trace-csv-node-in-an-arabic-indic-digit": (
        "netshare", "period,i,j,volume\nt0,\u0663,2,1\nt0,1,2,1\n", None, None),
    # --max-n takes the flag's text itself, refused before any file is read
    "solve-max-n-in-an-arabic-indic-digit": (
        "solve", {"lattice": "2^N", "n": 1, "values": {"": "0", "1": "1"}},
        "--max-n", "\u0663"),
    "core-max-n-in-a-fullwidth-digit": (
        "core", {"lattice": "2^N", "n": 1, "values": {"": "0", "1": "1"}},
        "--max-n", "\uff13"),
    "netshare-max-n-in-an-arabic-indic-digit": (
        "netshare", {"n": 3, "periods": [{"volumes": {"1,2": "1"}}]}, "--max-n", "\u0663"),
    "selfcheck-max-n-in-an-arabic-indic-digit": ("selfcheck", None, "--max-n", "\u0663"),
    # past the JSON parser's recursion limit, or csv's field size limit
    "game-file-nested-too-deeply": (
        "core", JSONText('{"a": ' * 100_000 + "1" + "}" * 100_000), None, None),
    "trace-periods-nested-too-deeply": (
        "netshare", JSONText('{"n": 3, "periods": ' + "[" * 100_000 + "]" * 100_000 + "}"),
        None, None),
    "trace-csv-field-past-the-csv-limit": (
        "netshare", "period,i,j,volume\nt0,1,2,%s\n" % ("1" * (csv.field_size_limit() + 1)),
        None, None),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_inputs_exit_2(tmp_path, capsys, case):
    command, main_input, flag, side_input = MALFORMED[case]
    if main_input is None:  # selfcheck reads no file
        argv = [command]
    elif isinstance(main_input, str):  # a CSV trace, or JSON text as it stands
        main = tmp_path / ("input.json" if isinstance(main_input, JSONText) else "input.csv")
        main.write_text(main_input, encoding="utf-8")
        argv = [command, str(main)]
    else:
        argv = [command, write_json(tmp_path / "input.json", main_input)]
    if command == "solve":  # myerson needs a graph file, so it fails without one
        argv += ["--solver", "myerson" if flag == "--graph-file" else "su"]
    if flag == "--max-n":
        # argparse refuses the flag: usage and the error on stderr, exit 2
        with pytest.raises(SystemExit) as info:
            cli.main(argv + [flag, side_input])
        code, (out, err) = info.value.code, capsys.readouterr()
        assert code == 2, out
        assert out == ""
        assert err.startswith("usage: ")
        assert (f"error: argument --max-n: takes an integer in ASCII digits, "
                f"got {side_input!r}") in err
        return
    if flag is not None:
        argv += [flag, write_json(tmp_path / "side.json", side_input)]
    code, out, err = run_cli(argv, capsys)
    assert code == 2, out
    assert out == ""
    assert err.startswith("error: ")


# JSON text, since a dict cannot hold a key twice: (argv, text, the key)
TWICE = {
    "game-values": (["solve", "{twice}"],
                    '{"lattice": "2^N", "n": 1, "values": {"": "0", "1": "5", "1": "7"}}', "1"),
    "trace-volumes": (["netshare", "{twice}"],
                      '{"n": 3, "periods": [{"period": "t0", '
                      '"volumes": {"1,2": "4", "1,2": "5"}}]}', "1,2"),
    "weights": (["solve", "{pair}", "--split", "{twice}"],
                '{"1,2": ["1", "0"], "1,2": ["0", "1"]}', "1,2"),
}


@pytest.mark.parametrize("case", sorted(TWICE))
def test_a_json_key_named_twice_in_one_object_exits_2(tmp_path, capsys, case):
    argv, text, key = TWICE[case]
    twice = tmp_path / "twice.json"
    twice.write_text(text, encoding="utf-8")
    paths = {"twice": twice, "pair": pair_game_file(tmp_path)}
    code, out, err = run_cli([arg.format(**paths) for arg in argv], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {twice}: key {key!r} is named twice in one object\n"


@pytest.mark.parametrize("trace,key", [
    ({"n": 3, "periods": [{"period": "t0", "volume": {"1,2": "4"}, "cluster": "1,2|3"}]},
     "volume"),
    ({"n": 3, "periods": [{"period": "t0", "volumes": {"1,2": "4"}, "cluster": "1,2|3"}]},
     "cluster"),
    ({"n": 3, "periods": [], "period": "t0"}, "period"),
], ids=["period-volume", "period-cluster", "trace-period"])
def test_a_trace_key_outside_the_format_exits_2(tmp_path, capsys, trace, key):
    code, out, err = run_cli(["netshare", write_json(tmp_path / "trace.json", trace)], capsys)
    assert (code, out) == (2, "")
    assert f"unknown key {key!r}" in err
    bare = write_json(tmp_path / "bare.json", {"n": 3, "periods": [{"period": "t0"}]})
    code, out, _ = run_cli(["netshare", bare], capsys)  # volumes may be left out
    assert code == 0
    assert json.loads(out)["periods"][0]["edgeShares"] == {"1,2": "0", "1,3": "0", "2,3": "0"}


PAIR_VALUES = {"1|2|3": "0", "1,2|3": "1", "1,3|2": "0", "1|2,3": "0", "1,2,3": "1"}

BAD_KEYS = {
    "one-element-under-two-spellings": (
        {**PAIR_VALUES, " 2, 1 | 3": "1"}, "duplicate value for element 1,2|3"),
    "one-element-as-code-and-blocks": (
        {"001": "1", **PAIR_VALUES}, "duplicate value for element 1,2|3"),
    "missing": (
        {k: v for k, v in PAIR_VALUES.items() if k != "1,3|2"}, "missing value for 1,3|2"),
    "stray": (
        {**PAIR_VALUES, "1,2": "0"}, "partition '1,2' covers 2 elements, expected 3"),
}


@pytest.mark.parametrize("command", ["solve", "core"])
@pytest.mark.parametrize("case", sorted(BAD_KEYS))
def test_game_keys_that_are_stray_missing_or_twice_exit_2(tmp_path, capsys, case, command):
    values, message = BAD_KEYS[case]
    game = write_json(tmp_path / "game.json", {"lattice": "P^N", "n": 3, "values": values})
    code, out, err = run_cli([command, game], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_solve_reads_any_spelling_of_a_key(tmp_path, capsys):
    respelt = write_json(tmp_path / "respelt.json", {
        "lattice": "P^N", "n": 3,
        "values": {"012": "0", " 2,1 | 3 ": "1", "2|3,1": "0", "011": "0", "3,2,1": "1"}})
    _, want, _ = run_cli(["solve", pair_game_file(tmp_path), "--solver", "cu"], capsys)
    code, got, _ = run_cli(["solve", respelt, "--solver", "cu"], capsys)
    assert code == 0
    assert got == want


def _index_only_runs(tmp_path):
    """Every subcommand path but selfcheck, over all three lattices."""
    def game_file(name, tag, n, value):
        lat = lattice_for(tag, n)
        game = LatticeGame(lat, {x: value(lat, i, x) for i, x in enumerate(lat.elements)})
        return write_json(tmp_path / f"{name}.json", game.payload())

    def mixed(lat, i, x):
        return f"{(7 * i) % 11 - 5}/{1 + i % 4}"

    def size(lat, i, x):
        return lat.size(x)

    def flat(lat, i, x):  # every atom asks for the whole top value: empty core
        return 0 if i == 0 else 1

    runs = []
    for tag, n, cluster in [("2^N", 3, "1,2"), ("P^N", 4, "1,2|3,4"), ("E^N", 2, "1;1|2")]:
        games = [game_file(f"{tag[0]}-{name}", tag, n, value)
                 for name, value in [("mixed", mixed), ("size", size), ("flat", flat)]]
        cluster_file = write_json(tmp_path / f"{tag[0]}-cluster.json", {"cluster": cluster})
        for solver in ["su", "cu", "egalitarian"] + (["shapley"] if tag == "2^N" else []):
            runs.append(["solve", games[0], "--solver", solver])
        runs.append(["solve", games[0], "--cluster-file", cluster_file, "--format", "csv"])
        runs.append(["solve", games[0], "--no-bottom-normalize", "--solver", "cu"])
        for game in games:
            runs.append(["core", game])
        runs.append(["core", games[0], "--cluster-file", cluster_file, "--format", "csv"])
    subsets = str(tmp_path / "2-mixed.json")
    graph = write_json(tmp_path / "graph.json", {"edges": [[1, 2], [3, 2]]})
    runs.append(["solve", subsets, "--solver", "myerson", "--graph-file", graph])
    partitions = str(tmp_path / "P-mixed.json")
    weights = write_json(tmp_path / "weights.json", {"1,2": ["1/3", "2/3"]})
    runs.append(["solve", partitions, "--split", "equal", "--format", "csv"])
    runs.append(["solve", partitions, "--split", weights, "--solver", "cu"])
    trace = trace_file(tmp_path)
    clusters = write_json(tmp_path / "clusters.json", {"t0": "1,3|2"})
    for solver in ("su", "cu", "egalitarian"):
        runs.append(["netshare", trace, "--solver", solver])
        runs.append(["netshare", trace, "--solver", solver, "--cluster-file", clusters,
                     "--format", "csv"])
    return runs


def test_commands_read_tables_by_index_only(tmp_path, capsys, monkeypatch):
    """solve, core and netshare print the same reports when the
    element-keyed table views and Lattice.leq/meet/join all raise."""
    runs = _index_only_runs(tmp_path)
    want = [run_cli(argv, capsys) for argv in runs]
    statuses = {(json.loads(out)["lattice"], json.loads(out)["status"])
                for argv, (_, out, _) in zip(runs, want)
                if argv[0] == "core" and "--format" not in argv}
    assert statuses == {(tag, status) for tag in ("2^N", "P^N", "E^N")
                        for status in ("empty", "nonempty")}

    def forbidden(*args, **kwargs):
        raise AssertionError("element-keyed table or order call on a command path")

    monkeypatch.setattr(_IntView, "_table", forbidden)
    monkeypatch.setattr(LatticeGame, "values", property(forbidden))
    monkeypatch.setattr(MobiusCoefficients, "coefficients", property(forbidden))
    for name in ("leq", "meet", "join"):
        monkeypatch.setattr(Lattice, name, forbidden)
    for argv, expected in zip(runs, want):
        got = run_cli(argv, capsys)
        assert got == expected, argv
        assert got[0] == 0, argv


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_is_an_input_error(capsys):
    code, _, err = run_cli(["solve", "/no/such/file.json"], capsys)
    assert code == 2
    assert "file.json" in err


def test_malformed_json_is_an_input_error(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"lattice": "P^N"', encoding="utf-8")
    code, _, err = run_cli(["solve", str(broken)], capsys)
    assert code == 2
    assert "broken.json" in err


def test_size_cap_exit_code(tmp_path, capsys, monkeypatch):
    game = rank_game_file(tmp_path)
    code, _, err = run_cli(["solve", game, "--max-n", "2"], capsys)
    assert code == 3
    assert "cap" in err
    monkeypatch.setenv("LATTICE_GAMES_MAX_N", "2")
    code, _, _ = run_cli(["solve", game], capsys)
    assert code == 3


def test_core_refuses_lattices_past_p7_before_the_simplex(tmp_path, capsys, monkeypatch):
    """core decides lattices of up to P^7's 877 elements.  P^8 and E^7,
    under the default cap, would pivot for hours, so they are refused as
    over a size cap, with nothing on stdout, before the phase-1 simplex
    starts; E^6's 877 elements still reach it."""
    def game_file(tag, n):
        lat = lattice_for(tag, n)
        values = {lat.key(x): str(lat.rank(x)) for x in lat.elements}
        return write_json(tmp_path / f"{tag[0]}{n}.json", {"lattice": tag, "n": n, "values": values})

    code, out, _ = run_cli(["core", game_file("P^N", 5)], capsys)
    assert code == 0 and json.loads(out)["status"] == "empty"

    class Reached(Exception):
        pass

    def phase1(*args):
        raise Reached

    monkeypatch.setattr(coresep, "_phase1", phase1)
    for tag, n in [("P^N", 8), ("E^N", 7)]:
        code, out, err = run_cli(["core", game_file(tag, n)], capsys)
        assert code == 3 and out == ""
        assert f"at most {bell(7)} elements" in err and "has 4140" in err
    with pytest.raises(Reached):
        cli.main(["core", game_file("E^N", 6)])


LIMIT = sys.get_int_max_str_digits()
BIG = 10 ** (LIMIT // 2 + 100)  # prints; a product of two such numbers does not


@pytest.mark.parametrize("argv, values", [
    # both values print, but their difference, the one share, has a
    # denominator of about 4400 digits
    *[(argv, '{"": "1/%d", "1": "1/%d"}' % (BIG + 1, BIG + 3))
      for argv in (["solve", "--solver", "su"], ["solve", "--solver", "cu"],
                   ["solve", "--solver", "egalitarian"], ["core"])],
    (["solve"], '{"": "0", "1": "1%s"}' % ("0" * LIMIT)),
    (["solve"], '{"": "0", "1": "1/1%s"}' % ("0" * LIMIT)),
    (["solve"], '{"": 0, "1": 1%s}' % ("0" * LIMIT)),
], ids=["su", "cu", "egalitarian", "core", "input", "input-denominator", "input-number"])
def test_a_number_past_the_int_string_limit_exits_3(tmp_path, capsys, argv, values):
    """An answer too long to print, or an input value too long to read,
    as a string or as a JSON number, is refused as over a size cap, with
    nothing on stdout."""
    game = tmp_path / "long.json"
    game.write_text('{"lattice": "2^N", "n": 1, "values": %s}' % values, encoding="utf-8")
    code, out, err = run_cli([argv[0], str(game), *argv[1:]], capsys)
    assert code == 3
    assert out == ""
    assert f"more than {LIMIT} digits" in err


def test_a_netshare_total_past_the_int_string_limit_exits_3(tmp_path, capsys):
    """Every edge and node share prints, but the efficiency check, their
    total, has a denominator of about LIMIT + 200 digits."""
    trace = write_json(tmp_path / "long.json", {"n": 4, "periods": [
        {"period": "t0", "volumes": {"1,2": "1/%d" % (BIG + 1), "3,4": "1/%d" % (BIG + 3)}}]})
    code, out, err = run_cli(["netshare", trace], capsys)
    assert code == 3
    assert out == ""
    assert f"more than {LIMIT} digits" in err


def test_deep_json_and_long_csv_fields_are_refused_with_the_file_named(tmp_path, capsys):
    game = tmp_path / "deep.json"
    game.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    trace = tmp_path / "long.csv"
    trace.write_text("period,i,j,volume\nt0,1,2,1\nt0,1,3,%s\n"
                     % ("7" * (csv.field_size_limit() + 1)), encoding="utf-8")
    latin_json, latin_csv = tmp_path / "latin.json", tmp_path / "latin.csv"
    latin_json.write_bytes('{"n": 3, "periods": [{"period": "p\u00e9riode"}]}'.encode("latin-1"))
    latin_csv.write_bytes("period,i,j,volume\np\u00e9riode,1,2,3\n".encode("latin-1"))
    not_utf8 = "'utf-8' codec can't decode byte 0xe9"
    for argv, where in [(["core", str(game)], f"{game}: JSON nested too deeply"),
                        (["solve", str(game)], f"{game}: JSON nested too deeply"),
                        (["netshare", str(trace)], f"{trace}:3: field larger than field limit"),
                        (["netshare", str(latin_json)], f"{latin_json}: {not_utf8}"),
                        (["netshare", str(latin_csv)], f"{latin_csv}: {not_utf8}")]:
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {where}")


def test_inputs_are_read_as_utf8_whatever_the_locale(tmp_path):
    """JSON is UTF-8 (RFC 8259).  Under the C locale, with its coercion and
    UTF-8 mode off, a text file opened by default decodes as ASCII; the
    trace is read as UTF-8 all the same, so netshare on a trace with a
    non-ASCII period label prints what it prints under a UTF-8 locale."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"n": 3, "periods": [
        {"period": "p\u00e9riode", "volumes": {"1,2": "3", "2,3": "1/2"}}]}, ensure_ascii=False),
        encoding="utf-8")
    package_root = Path(lattice_games.__file__).resolve().parents[1]
    runs = {}
    for locale in ("C", "C.UTF-8"):
        env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1",
                   LC_ALL=locale, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run([sys.executable, "-m", "lattice_games.cli", "netshare", str(trace)],
                              capture_output=True, env=env)
        runs[locale] = proc.returncode, proc.stdout, proc.stderr
    assert runs["C"] == runs["C.UTF-8"]
    assert runs["C"][0] == 0
    assert json.loads(runs["C"][1])["periods"][0]["period"] == "p\u00e9riode"


def test_csv_reports_are_written_as_utf8_whatever_the_locale(tmp_path):
    """A CSV report is UTF-8 whatever the locale: under the C locale, with
    its coercion and UTF-8 mode off, netshare --format csv on a trace with
    a non-ASCII period label prints the bytes it prints under a UTF-8
    locale."""
    trace = tmp_path / "trace.json"
    trace.write_text(json.dumps({"n": 3, "periods": [
        {"period": "p\u00e9riode", "volumes": {"1,2": "3", "2,3": "1/2"}}]}, ensure_ascii=False),
        encoding="utf-8")
    package_root = Path(lattice_games.__file__).resolve().parents[1]
    runs = {}
    for locale in ("C", "C.UTF-8"):
        env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1",
                   LC_ALL=locale, PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run([sys.executable, "-m", "lattice_games.cli", "netshare", str(trace),
                               "--format", "csv"], capture_output=True, env=env)
        runs[locale] = proc.returncode, proc.stdout, proc.stderr
    assert runs["C"] == runs["C.UTF-8"]
    assert runs["C"][0] == 0 and runs["C"][2] == b""
    rows = list(csv.reader(io.StringIO(runs["C"][1].decode("utf-8"))))
    assert rows[1][0] == "p\u00e9riode"


def test_unknown_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2


def test_main_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    """Consecutive calls through one parser print what each prints in a
    fresh process (a cleared parser cache), a bad argv in between too."""
    calls = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or build())
    game, trace = rank_game_file(tmp_path), trace_file(tmp_path)
    runs = [["solve", game, "--no-bottom-normalize", "--format", "csv"],
            ["solve", game, "--solver", "nope"],
            ["solve", game],
            ["core", game, "--format", "csv"],
            ["frobnicate"],
            ["netshare", trace, "--solver", "cu"],
            ["core", game],
            ["solve", game, "--split", "equal", "--solver", "cu"]]

    def run(argv):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        return (code, *capsys.readouterr())

    alone = []
    for argv in runs:
        cli._parser.cache_clear()
        alone.append(run(argv))
    assert [code for code, _, _ in alone] == [0, 2, 0, 0, 2, 0, 0, 0]
    cli._parser.cache_clear()
    calls.clear()
    assert [run(argv) for argv in runs] == alone
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# selfcheck


def test_selfcheck_passes_everywhere(capsys):
    code, out, _ = run_cli(["selfcheck"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("ok") for line in lines[:-1])
    assert lines[-1] == "17/17 checks passed"


def test_selfcheck_skips_cases_over_the_cap(capsys):
    code, out, _ = run_cli(["selfcheck", "--max-n", "3"], capsys)
    assert code == 0
    assert "skip chain-totals (needs ground size 5, cap is 3)" in out
    assert "FAIL" not in out
    assert out.strip().splitlines()[-1].endswith("skipped")


def test_selfcheck_restores_the_environment(capsys, monkeypatch):
    monkeypatch.delenv("LATTICE_GAMES_MAX_N", raising=False)
    code, _, _ = run_cli(["selfcheck", "--max-n", "3"], capsys)
    assert code == 0
    assert "LATTICE_GAMES_MAX_N" not in os.environ


def test_selfcheck_flag_wins_over_the_environment_cap(capsys, monkeypatch):
    monkeypatch.setenv("LATTICE_GAMES_MAX_N", "2")
    code, out, _ = run_cli(["selfcheck", "--max-n", "5"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "17/17 checks passed")
    assert "skip" not in out
    code, out, _ = run_cli(["selfcheck"], capsys)
    assert (code, out.splitlines()[-1]) == (0, "1/1 checks passed, 16 skipped")
    assert os.environ["LATTICE_GAMES_MAX_N"] == "2"


@pytest.mark.parametrize("cap", ["0", "-4"])
def test_a_size_cap_below_one_is_malformed(tmp_path, capsys, monkeypatch, cap):
    """No lattice fits under a cap below 1, so the flag and the variable
    are refused as malformed input (exit 2): selfcheck runs no check, and
    no command reads its file."""
    game, trace = rank_game_file(tmp_path), trace_file(tmp_path)
    commands = [["selfcheck"], ["solve", game], ["core", game], ["netshare", trace]]
    for argv in commands:
        with pytest.raises(SystemExit) as info:
            cli.main(argv + ["--max-n", cap])
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, ""), argv
        assert f"error: argument --max-n: takes a size cap of at least 1, got {cap!r}" in err
    monkeypatch.setenv("LATTICE_GAMES_MAX_N", cap)
    for argv in commands:
        assert run_cli(argv, capsys) == (
            2, "", f"error: LATTICE_GAMES_MAX_N must be at least 1, got {cap}\n"), argv
    with pytest.raises(ValueError, match="max_n must be at least 1") as info:
        lattice_for("2^N", 1, int(cap))
    assert not isinstance(info.value, SizeLimitError)


def test_selfcheck_names_the_failing_case(capsys, monkeypatch):
    monkeypatch.setattr(cli, "CHECKS", list(cli.CHECKS) + [
        ("planted-failure", 1, lambda: "expected 1, got 2")])
    code, out, _ = run_cli(["selfcheck"], capsys)
    assert code == 1
    assert "FAIL planted-failure: expected 1, got 2" in out


# ---------------------------------------------------------------------------
# packaging


def test_console_script_is_installed(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"].get("scripts", {})
    assert "lattice-games" in scripts, "no lattice-games in [project.scripts]"
    entry = EntryPoint(name="lattice-games", value=scripts["lattice-games"],
                       group="console_scripts")
    assert callable(entry.load())

    # The launcher an installer writes for a console_scripts entry point.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "lattice-games"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n", encoding="utf-8")
    launcher.chmod(0o755)
    exe = shutil.which("lattice-games", path=str(bin_dir))
    assert exe == str(launcher)

    package_root = Path(lattice_games.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([exe, "selfcheck", "--max-n", "3"],
                          capture_output=True, encoding="utf-8", env=env)
    assert proc.returncode == 0, proc.stderr
    assert "skipped" in proc.stdout
    # A main that drops its return value would still exit 0 above.
    proc = subprocess.run([exe, "solve", str(tmp_path / "missing.json")],
                          capture_output=True, encoding="utf-8", env=env)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("clustered", [False, True], ids=["cu", "cu-cluster-file"])
def test_cold_solve_at_the_cap_matches_the_in_process_report(tmp_path, capsys, clustered):
    """In process the lattice_for cache is warm; a fresh interpreter builds
    E^7's elements, masks and order tables from nothing.  Under python -O
    its cu report, also on a game restricted to a cluster (read at the
    meets), is byte for byte the in-process one."""
    lat = lattice_for("E^N", 7)
    rng = random.Random(41)
    game = write_json(tmp_path / "e7.json", {
        "lattice": "E^N", "n": 7,
        "values": {lat.key(x): f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
                   for x in lat.elements}})
    argv = ["solve", game, "--solver", "cu"]
    if clustered:
        cluster = lat.key(rng.choice(lat.elements[1:-1]))
        argv += ["--cluster-file", write_json(tmp_path / "cluster.json", {"cluster": cluster})]
    code, want, _ = run_cli(argv, capsys)
    assert code == 0
    package_root = Path(lattice_games.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-O", "-m", "lattice_games.cli", *argv],
                          capture_output=True, encoding="utf-8", env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == want


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "lattice_games.cli",
                           "selfcheck", "--max-n", "3"],
                          capture_output=True, encoding="utf-8")
    assert proc.returncode == 0
    assert "skipped" in proc.stdout


PUBLIC = [
    "EmbeddedSubset", "Partition", "SizeLimitError", "bell", "class_count",
    "class_vectors", "ground_cap", "lattice_for",
    "LatticeGame", "MobiusCoefficients", "format_fraction", "mobius",
    "parse_fraction", "zeta_expand", "zeta_game",
    "PredicateReport", "SymmetricGame", "additive_global", "additive_pff",
    "clustering_restrict", "is_monotone", "is_supermodular", "is_symmetric",
    "is_totally_positive",
    "SOLVERS", "NodeShares", "Solution", "cu", "cu_chain_oracle", "egalitarian",
    "graph_restrict", "is_fixed_point", "myerson", "shapley_chain",
    "shapley_dividends", "split_to_nodes", "su", "symmetric_solution",
    "transport_solution",
    "CoreReport", "SeparabilityReport", "SeparatingFamily", "VerificationError",
    "core_contains", "core_feasible", "separability_test",
    "__version__",
]

# routines gone from the package; the oracles tests still use live in tests/
REMOVED = [
    ("lattice.Partition", ["refines", "meet", "join", "_owner_map"]),
    ("lattice.EmbeddedSubset", ["to_partition"]),
    ("lattice.Lattice", ["covers", "covers_of", "chain_pair_ratio", "chain_count_through",
                         "_chain_step_count"]),
    ("lattice.Lattice", ["upset_indices"]),
    ("lattice.SubsetLattice", ["chain_count_through", "_chain_step_count"]),
    ("lattice.PartitionLattice", ["chain_count_through", "_chain_step_count"]),
    ("lattice.EmbeddedLattice", ["chain_count_through", "_chain_step_count"]),
    ("lattice", ["_kappa", "_chains_below"]),
    ("solutions.Solution", ["expand"]),
    ("transform.MobiusCoefficients", ["below"]),
    ("games", ["symmetric_expand"]),
    ("coresep", ["separating_variant"]),
    ("transform", ["_TableOnLattice", "_fractions"]),
    ("solutions", ["_owner"]),
    ("coresep", ["_owner", "_su_table"]),
    ("cli", ["_view_ratios", "_share_ratios", "_total_ratio"]),
    ("", ["separating_variant", "symmetric_expand"]),
]


def test_public_surface_is_pinned():
    assert lattice_games.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(lattice_games, name) is not None, name
    for path, names in REMOVED:
        holder = lattice_games
        for part in filter(None, path.split(".")):
            holder = getattr(holder, part)
        for name in names:
            assert not hasattr(holder, name), f"{path}.{name}"
    assert not hasattr(lattice_for("P^N", 3), "_atom_set")  # set per instance
