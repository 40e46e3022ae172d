"""Tests of the benchmark itself: determinism, checks, tracer coverage.

Run from the repository root with ``python -m pytest bench -q``; they take
about half a minute, most of it one traced round per workload.
"""

import csv
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lattice_games import cli  # noqa: E402

WORKLOADS = sorted(workloads.WORKLOADS)


def _files(batch, directory):
    out = []
    for req in batch:
        for arg in req.argv:
            if arg.startswith(str(directory)):
                out.append((arg[len(str(directory)):], Path(arg).read_text()))
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_stream(name, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first = workloads.generate(name, 7, 2, str(a))
    second = workloads.generate(name, 7, 2, str(b))
    for x, y in zip(first, second):
        assert [r.argv for r in x] == [[arg.replace(str(b), str(a)) for arg in r.argv]
                                       for r in y]
        assert _files(x, a) == _files(y, b)
    assert [r.info for r in workloads.generate(name, 7, 2, str(a), write=False)[1]] == \
        [r.info for r in first[1]]
    other = workloads.generate(name, 8, 1, str(b), write=False)
    assert [r.info for r in other[0]] != [r.info for r in first[0]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_digest(name, tmp_path):
    seed = json.loads(run.DIGESTS.read_text())["seed"]
    digests = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        requests = workloads.generate(name, seed, 1, str(tmp_path / sub))
        failed, reasons, digest = run.judge(cli, [], requests)
        assert not reasons
        digests.append(digest)
    assert digests[0] == digests[1] == run.stored_digest(name, seed)


def _alter_first_share(text):
    """Add one to the first share, witness or multiplier value of a report."""
    if not text.startswith("{"):
        rows = list(csv.reader(io.StringIO(text)))
        row = next(r for r in rows if r[0] == "share")
        row[2] = str(Fraction(row[2]) + 1)
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        return out.getvalue()
    # a multiplier on the bottom element proves nothing either way, so a
    # certificate is altered in its efficiency multiplier instead
    anchor = re.search(r'[sS]hares|witness|"efficiency"', text)
    match = re.compile(r': "(-?\d+(?:/\d+)?)"').search(text, anchor.end())
    return text[:match.start(1)] + str(Fraction(match.group(1)) + 1) + text[match.end(1):]


@pytest.mark.parametrize("name", WORKLOADS)
def test_altered_share_is_a_failure(name, tmp_path):
    requests = workloads.generate(name, 3, 1, str(tmp_path))
    altered = []
    for req in requests[0]:
        code, text, _ = run.call(cli, req.argv)
        assert code == 0 and checks.check(req, text) is None, req.slot
        altered.append(_alter_first_share(text))
        assert altered[-1] != text
        assert checks.check(req, altered[-1]) is not None, req.slot
    # the second record repeats the first request of the one-round pool
    records = [run.Record(r, 0, 1, 1, 1, 0, altered[0], "") for r in (0, 1)]
    failed, reasons, _ = run.judge(cli, records, requests)
    assert failed == 2 and len(reasons) == 2


# functions each workload must reach; the rest of tracer.SPANS may read zero
PREDICTED = {
    "solve-mix": ["lattice.lattice_for", "lattice.order_tables", "transform.from_payload",
                  "transform.mobius", "transform.zeta_expand", "games.clustering_restrict",
                  "solutions.su", "solutions.cu", "solutions.shapley_dividends",
                  "solutions.myerson", "solutions.graph_restrict", "solutions.split_to_nodes",
                  "solutions.Solution.payload", "cli.main",
                  "lattice.leq", "lattice.join", "lattice.chain_pair_ratio"],
    "core-small": ["lattice.lattice_for", "lattice.order_tables", "transform.from_payload",
                   "transform.mobius", "games.is_supermodular", "games.is_totally_positive",
                   "coresep.core_feasible", "solutions.Solution.payload", "cli.main",
                   "lattice.leq", "lattice.join"],
    "netshare-n6": ["lattice.lattice_for", "lattice.order_tables", "transform.mobius",
                    "transform.zeta_expand", "games.clustering_restrict", "solutions.su",
                    "solutions.cu", "solutions.split_to_nodes", "solutions.is_fixed_point",
                    "solutions.Solution.expand", "cli.main",
                    "lattice.leq", "lattice.join", "lattice.chain_pair_ratio"],
}


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_round_covers_the_predicted_layers(name, capsys):
    original = cli.main
    assert run.main(["--workload", name, "--seed", "0", "--seconds", "0", "--trace", "1"]) == 0
    assert cli.main is original  # the tracer put every binding back
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    for prefix in PREDICTED[name]:
        assert metrics[f"{prefix}.calls"] > 0, prefix
    if name != "core-small":
        assert metrics["coresep.core_feasible.calls"] == 0
    assert metrics["lattice.elements"] > 0 and metrics["trace.requests_per_kref"] > 0
