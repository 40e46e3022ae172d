"""Seeded hostile-input fuzzer for the command line.

Valid inputs of every kind (game, JSON trace, CSV trace, graph, weights
and cluster files) are mutated one file at a time: truncated, given a
key twice, a value of another type, NaN or Infinity, deep nesting, a
byte-order mark, bytes that are not UTF-8, a huge exponent, or a number
of as many digits as Python's int-string limit allows and one more.
Each mutated run goes through cli.main in process, in both formats, and
must end with exit 0, 2 or 3, no exception escaping, and nothing on
stdout for 2 or 3.  The numbers follow the limit in force.
"""

import json
import random
import sys
from itertools import product

import pytest

from lattice_games import cli
from lattice_games.lattice import lattice_for

LIMIT = sys.get_int_max_str_digits() or 4300
REPEATS = 5  # mutations of each kind on each input file of a run
RAW = "@@raw@@"  # a placeholder string the serializer swaps for a raw token
DUP = "@@dup@@"  # a placeholder key the serializer swaps for a copy of another key


def game_payload(tag, n, rng):
    lat = lattice_for(tag, n)
    return {"lattice": tag, "n": n,
            "values": {lat.key(x): f"{rng.randint(-9, 9)}/{rng.randint(1, 4)}"
                       for x in lat.elements}}


def valid_files(rng):
    """{name: bytes} of one valid input of every kind."""
    docs = {
        "game2.json": game_payload("2^N", 3, rng),
        "gameP.json": game_payload("P^N", 3, rng),
        "gameE.json": game_payload("E^N", 2, rng),
        "graph.json": {"edges": [[1, 2], [2, 3]]},
        "weights.json": {"1,2": ["1/3", "2/3"], "2,3": ["1", "0"]},
        "cluster.json": {"cluster": "1,2|3"},
        "clusters.json": {"t0": "1,3|2"},
        "trace.json": {"n": 3, "periods": [
            {"period": "t0", "volumes": {"1,2": "4", "1,3": "1/2", "2,3": "0"}},
            {"period": 1, "volumes": {"1,2": "3"}, "clustering": "1,2|3"}]},
    }
    files = {name: json.dumps(doc).encode() for name, doc in docs.items()}
    files["trace.csv"] = b"period,i,j,volume\nt0,1,2,4\nt0,3,1,1/2\nt1,2,3,7\n"
    return files


RUNS = [
    ["solve", "gameP.json", "--solver", "cu", "--split", "weights.json",
     "--cluster-file", "cluster.json"],
    ["solve", "game2.json", "--solver", "myerson", "--graph-file", "graph.json"],
    ["solve", "gameE.json", "--solver", "su"],
    ["core", "gameP.json", "--cluster-file", "cluster.json"],
    ["core", "gameE.json"],
    ["netshare", "trace.json", "--split", "weights.json", "--cluster-file", "clusters.json"],
    ["netshare", "trace.csv", "--solver", "cu"],
]


def limit_numbers(rng):
    """Integers as texts of LIMIT digits, which Python reads, and of one
    more, which it refuses to."""
    return ["9" * LIMIT, "-" + "1" * LIMIT, "1" + "0" * LIMIT, str(rng.randint(1, 9)) * (LIMIT + 1)]


def hostile_tokens(rng, kind):
    """JSON tokens of one mutation kind."""
    if kind == "swapped type":
        return ["null", "true", "false", "1.5", "-1", "0", "\"x\"", "[]", "{}", "[1, 2]",
                "{\"1,2\": 1}", "\"1/0\"", "\"\"", str(10 ** 20)]
    if kind == "nan":
        return ["NaN", "-NaN", "Infinity", "-Infinity", "\"NaN\"", "\"Infinity\""]
    if kind == "deep nesting":
        depth = rng.choice([100, 5000, 100000])
        return ["[" * depth + "]" * depth, "{\"a\": " * depth + "0" + "}" * depth]
    if kind == "huge exponent":
        return ["1e999999", "-1E+99999999", "1e-999999", "\"1e999999\"", "\"1/1e400\""]
    numbers = limit_numbers(rng)
    return numbers + [f"\"{q}\"" for q in numbers] + [f"\"1/{numbers[0]}\""]


def nodes(doc, path=()):
    """Every (path, value) in a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from nodes(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from nodes(value, (*path, i))


def replaced(doc, path, value):
    if not path:
        return value
    doc = dict(doc) if isinstance(doc, dict) else list(doc)
    doc[path[0]] = replaced(doc[path[0]], path[1:], value)
    return doc


def mutate_json(data, kind, rng):
    doc = json.loads(data)
    spots = list(nodes(doc))
    if kind == "duplicate key":
        path, obj = rng.choice([(p, v) for p, v in spots if isinstance(v, dict) and v])
        key = rng.choice(list(obj))
        text = json.dumps(replaced(doc, path, {**obj, DUP: obj[key]}))
        return text.replace(json.dumps(DUP), json.dumps(key)).encode()
    path, _ = rng.choice(spots)
    text = json.dumps(replaced(doc, path, RAW))
    return text.replace(json.dumps(RAW), rng.choice(hostile_tokens(rng, kind))).encode()


def mutate_csv(data, kind, rng):
    lines = data.decode().splitlines()
    if kind == "duplicate key":
        lines.insert(rng.randrange(1, len(lines)), rng.choice(lines[1:]))
        return ("\n".join(lines) + "\n").encode()
    row = rng.randrange(len(lines))
    cells = lines[row].split(",")
    token = rng.choice(hostile_tokens(rng, kind))
    cells[rng.randrange(len(cells))] = token.strip("\"") if "[" not in token else f"\"{token}\""
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


BYTE_KINDS = ["truncation", "bom", "invalid utf-8"]
TEXT_KINDS = ["duplicate key", "swapped type", "nan", "deep nesting", "huge exponent",
              "limit digits"]


def mutate(name, data, kind, rng):
    if kind == "truncation":
        return data[:rng.randrange(len(data))]
    if kind == "bom":
        return b"\xef\xbb\xbf" + data
    if kind == "invalid utf-8":
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice([b"\xff", b"\xc3(", b"\xed\xa0\x80", b"\x80"]) + data[at:]
    return (mutate_csv if name.endswith(".csv") else mutate_json)(data, kind, rng)


def run_both_formats(argv, capsys, case):
    for fmt in ("json", "csv"):
        try:
            code = cli.main([*argv, "--format", fmt])
        except Exception as err:  # an escape is the failure this test looks for
            pytest.fail(f"{case} --format {fmt}: {type(err).__name__}: {err}")
        out, err = capsys.readouterr()
        assert code in (0, 2, 3), (case, fmt, code, err)
        if code:
            assert out == "", (case, fmt)
            assert err.startswith("error: "), (case, fmt, err)
        yield code


def write_inputs(tmp_path, files):
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)


def paths(tmp_path, argv):
    return [str(tmp_path / arg) if "." in arg else arg for arg in argv]


@pytest.mark.parametrize("run", RUNS, ids=" ".join)
def test_unmutated_inputs_exit_0(tmp_path, capsys, run):
    write_inputs(tmp_path, valid_files(random.Random(0)))
    assert list(run_both_formats(paths(tmp_path, run), capsys, run)) == [0, 0]


@pytest.mark.parametrize("run", RUNS, ids=" ".join)
def test_mutated_inputs_exit_0_2_or_3_with_nothing_escaping(tmp_path, capsys, run):
    """Every mutation kind lands REPEATS times on every input file of the
    run, seeded by the run; each exits 0, 2 or 3 in both formats."""
    rng = random.Random(" ".join(run))
    files = valid_files(rng)
    write_inputs(tmp_path, files)
    inputs = [arg for arg in run if "." in arg]
    codes = []
    for name, kind, _ in product(inputs, BYTE_KINDS + TEXT_KINDS, range(REPEATS)):
        mutated = f"mutated-{name}"
        (tmp_path / mutated).write_bytes(mutate(name, files[name], kind, rng))
        argv = [mutated if arg == name else arg for arg in run]
        codes += run_both_formats(paths(tmp_path, argv), capsys, (kind, name, run))
    assert 2 in codes
