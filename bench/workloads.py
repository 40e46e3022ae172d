"""Seeded request streams for the benchmark, and the lattice model they use.

The model here is the benchmark's own: it enumerates elements, renders
their canonical keys and decides the order through atom bitmasks, without
calling the package.  Input generation therefore builds no lattice inside
the process under test, and the checks in checks.py rest on an independent
description of each lattice.

A stream is a sequence of rounds.  Every round holds the same fixed
multiset of request slots (lattice, size, solver, options); the seed
chooses the order of each round and every value, graph, clustering and
trace.  A fixed composition keeps the latency percentiles inside the same
cluster of request costs from one seed to the next.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations


# ---------------------------------------------------------------------------
# lattice model


def _set_partitions(m):
    """Every set partition of 1..m, blocks ascending and ordered by least element."""
    out = []
    blocks = []

    def rec(x):
        if x > m:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(x)
            rec(x + 1)
            b.pop()
        blocks.append([x])
        rec(x + 1)
        blocks.pop()

    rec(1)
    return out


def partition_label(blocks):
    return "|".join(",".join(str(x) for x in b) for b in sorted(blocks))


def _pair_mask(blocks, bit_of_pair):
    mask = 0
    for b in blocks:
        for i, j in combinations(sorted(b), 2):
            mask |= bit_of_pair[(i, j)]
    return mask


class Model:
    """One lattice as key strings and atom bitmasks.

    ``elements`` lists (key, mask) with mask the set of atoms below the
    element; x <= y exactly when mask(x) is a subset of mask(y).  ``atoms``
    lists (key, bit) in the package's atom order.
    """

    def __init__(self, tag, n):
        self.tag = tag
        self.n = n
        ground = range(1, n + 1)
        if tag == "2^N":
            self.atoms = [(str(i), 1 << (i - 1)) for i in ground]
            self.elements = [(",".join(str(i) for i in combo),
                              sum(1 << (i - 1) for i in combo))
                             for k in range(n + 1) for combo in combinations(ground, k)]
        elif tag == "P^N":
            pairs = list(combinations(ground, 2))
            bit = {p: 1 << k for k, p in enumerate(pairs)}
            self.atoms = [(partition_label([p] + [(x,) for x in ground if x not in p]),
                           bit[p]) for p in pairs]
            self.elements = [(partition_label(bl), _pair_mask(bl, bit))
                             for bl in _set_partitions(n)]
        elif tag == "E^N":
            # (A; P) is the partition of 1..n+1 whose block holding n+1 is A + {n+1}
            m = n + 1
            pairs = [(i, m) for i in ground] + list(combinations(ground, 2))
            bit = {p: 1 << k for k, p in enumerate(pairs)}
            bottom = partition_label([(x,) for x in ground])
            self.atoms = [(f"{i};{bottom}", bit[(i, m)]) for i in ground]
            self.atoms += [(";" + partition_label([p] + [(x,) for x in ground if x not in p]),
                            bit[p]) for p in combinations(ground, 2)]
            self.elements = []
            for bl in _set_partitions(m):
                subset = next(b for b in bl if m in b)[:-1]
                rest = [b for b in bl if m not in b] + ([subset] if subset else [])
                key = ",".join(str(x) for x in subset) + ";" + partition_label(rest)
                self.elements.append((key, _pair_mask(bl, bit)))
        else:
            raise ValueError(f"unknown lattice tag {tag!r}")
        self.mask = dict(self.elements)
        self.bottom = min(self.elements, key=lambda e: e[1].bit_count())[0]
        self.top = max(self.elements, key=lambda e: e[1].bit_count())[0]

    def __len__(self):
        return len(self.elements)

    def leq(self, x, y):
        return self.mask[x] & ~self.mask[y] == 0

    def atoms_below(self, x):
        mx = self.mask[x]
        return [key for key, bit in self.atoms if mx & bit]


_MODELS = {}


def model(tag, n):
    if (tag, n) not in _MODELS:
        _MODELS[tag, n] = Model(tag, n)
    return _MODELS[tag, n]


# ---------------------------------------------------------------------------
# requests


@dataclass
class Request:
    """One CLI invocation plus what the checks need to judge its report."""

    slot: str
    argv: list
    info: dict


def _rational(rng, lo=-20, hi=20, den=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, den))


def _text(q):
    return f"{q.numerator}/{q.denominator}"


def _write(path, payload, write):
    if write:
        with open(path, "w") as fh:
            fh.write(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def _random_values(rng, mod):
    return {key: _rational(rng) for key, _ in mod.elements}


def _dividend_game(rng, mod):
    """zeta expansion of positive integer dividends on every element."""
    mu = {key: Fraction(rng.randint(1, 6)) for key, _ in mod.elements}
    return {y: sum((q for x, q in mu.items() if mod.leq(x, y)), Fraction(0))
            for y, _ in mod.elements}


def _deficit_game(rng, mod):
    """A random dividend game whose top falls short of the atoms' total
    gain over the bottom: no shares can meet every atom's lower bound and
    stay efficient, so the core is empty."""
    values = _dividend_game(rng, mod)
    gain = sum((values[a] - values[mod.bottom] for a, _ in mod.atoms), Fraction(0))
    values[mod.top] = values[mod.bottom] + gain - rng.randint(1, 6)
    return values


def game_payload(mod, values):
    return {"lattice": mod.tag, "n": mod.n,
            "values": {key: _text(q) for key, q in values.items()}}


def _connected_graph(rng, n):
    """A random spanning tree on 1..n plus a few extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((v, rng.choice(order[:k])))) for k, v in enumerate(order) if k}
    for i, j in combinations(range(1, n + 1), 2):
        if rng.random() < 0.2:
            edges.add((i, j))
    return sorted(edges)


def _random_partition(rng, ground):
    """A random partition of ground into two or three blocks."""
    k = rng.randint(2, 3)
    while True:
        labels = [rng.randrange(k) for _ in ground]
        if len(set(labels)) == k:
            break
    blocks = {}
    for x, b in zip(ground, labels):
        blocks.setdefault(b, []).append(x)
    return partition_label(tuple(v) for v in blocks.values())


# -- solve-mix ---------------------------------------------------------------

# (tag, n, solver, options); P^7 cu appears four times so that the 90th
# percentile falls inside one cost cluster rather than between two.
SOLVE_SLOTS = [
    ("2^N", 6, "su", ()), ("2^N", 6, "cu", ("csv",)), ("2^N", 6, "egalitarian", ()),
    ("2^N", 6, "shapley", ()), ("2^N", 6, "myerson", ()),
    ("2^N", 7, "su", ("cluster",)), ("2^N", 7, "cu", ()), ("2^N", 7, "egalitarian", ("csv",)),
    ("2^N", 7, "shapley", ("cluster",)), ("2^N", 7, "myerson", ()),
    ("2^N", 8, "su", ()), ("2^N", 8, "cu", ("cluster",)), ("2^N", 8, "egalitarian", ()),
    ("2^N", 8, "shapley", ("csv",)), ("2^N", 8, "myerson", ()),
    ("P^N", 5, "su", ("split",)), ("P^N", 5, "cu", ("cluster",)),
    ("P^N", 5, "egalitarian", ("csv", "split")),
    ("P^N", 6, "su", ("cluster", "split")), ("P^N", 6, "cu", ("split",)),
    ("P^N", 6, "egalitarian", ()),
    ("P^N", 7, "su", ("csv",)), ("P^N", 7, "cu", ()), ("P^N", 7, "cu", ("split",)),
    ("P^N", 7, "cu", ("csv",)), ("P^N", 7, "cu", ("csv", "split")),
    ("P^N", 7, "egalitarian", ("split",)),
    ("E^N", 4, "su", ()), ("E^N", 4, "cu", ("csv",)), ("E^N", 4, "egalitarian", ("cluster",)),
    ("E^N", 5, "su", ("cluster",)), ("E^N", 5, "cu", ()), ("E^N", 5, "egalitarian", ()),
    ("E^N", 6, "su", ()), ("E^N", 6, "cu", ()), ("E^N", 6, "egalitarian", ("csv",)),
]


def _solve_request(rng, slot, path, write):
    tag, n, solver, options = slot
    mod = model(tag, n)
    values = _random_values(rng, mod)
    argv = ["solve", _write(path + ".json", game_payload(mod, values), write),
            "--solver", solver]
    info = {"tag": tag, "n": n, "solver": solver, "values": values, "csv": "csv" in options,
            "split": "split" in options, "cluster": None}
    if solver == "myerson":
        graph = {"edges": _connected_graph(rng, n)}
        argv += ["--graph-file", _write(path + ".graph.json", graph, write)]
    if "cluster" in options:
        key = rng.choice([k for k, mask in mod.elements if mask.bit_count() >= 2])
        info["cluster"] = key
        argv += ["--cluster-file", _write(path + ".cluster.json", {"cluster": key}, write)]
    if info["split"]:
        argv += ["--split", "equal"]
    if info["csv"]:
        argv += ["--format", "csv"]
    return argv, info


# -- core-small --------------------------------------------------------------

# (tag, n, kind).  Deficit games take the empty-core certificate path and
# dividend games (nonnegative dividends, so totally positive) the witness
# path plus the full supermodularity scan.  A deficit game is a random
# dividend game whose top value is lowered, so its core is empty by
# construction.  Uniformly random values would take the same path on most
# draws, but their simplex cost spreads about three times wider (up to 2 s
# a request on |L| = 52), which made a run's throughput depend on the
# seed.  The two |L| = 52 dividend slots are the slowest seventh of a
# round, so the 90th percentile falls inside them; the cheap P^4 and E^3
# slots come twice, so that a run carries enough requests for that
# percentile.
CORE_SLOTS = (
    [(tag, n, kind) for tag, n in [("P^N", 5), ("E^N", 4), ("2^N", 5)]
     for kind in ("deficit", "positive")]
    + [(tag, n, kind) for tag, n in [("P^N", 4), ("E^N", 3)]
       for kind in ("deficit", "positive")] * 2
)


def _core_request(rng, slot, path, write):
    tag, n, kind = slot
    mod = model(tag, n)
    values = _dividend_game(rng, mod) if kind == "positive" else _deficit_game(rng, mod)
    argv = ["core", _write(path + ".json", game_payload(mod, values), write)]
    return argv, {"tag": tag, "n": n, "values": values,
                  "status": "nonempty" if kind == "positive" else "empty"}


# -- netshare ----------------------------------------------------------------

NETSHARE_N = 6
NETSHARE_PERIODS = 2

# (solver, trace format); all use --split equal
NETSHARE_SLOTS = [("su", "json")] * 4 + [("su", "csv")] * 2 + [("cu", "json"), ("cu", "csv")]


def _netshare_request(rng, slot, path, write):
    solver, fmt = slot
    n = NETSHARE_N
    ground = range(1, n + 1)
    edges = list(combinations(ground, 2))
    periods = []
    for t in range(NETSHARE_PERIODS):
        chosen = rng.sample(edges, len(edges) // 2)
        volumes = {e: _rational(rng, 1, 40, 4) for e in sorted(chosen)}
        clustering = _random_partition(rng, ground) if t % 2 else None
        periods.append((f"t{t}", volumes, clustering))
    if not any(n in e for _, volumes, _ in periods for e in volumes):
        periods[0][1][(1, n)] = Fraction(1)  # a CSV trace reads n off its edges
    argv = ["netshare"]
    if fmt == "csv":
        lines = ["period,i,j,volume"]
        lines += [f"{label},{i},{j},{_text(q)}"
                  for label, volumes, _ in periods for (i, j), q in volumes.items()]
        argv.append(_write(path + ".csv", "\n".join(lines) + "\n", write))
        clusters = {label: key for label, _, key in periods if key}
        argv += ["--cluster-file", _write(path + ".clusters.json", clusters, write)]
    else:
        trace = {"n": n, "periods": [
            dict({"period": label,
                  "volumes": {f"{i},{j}": _text(q) for (i, j), q in volumes.items()}},
                 **({"clustering": key} if key else {}))
            for label, volumes, key in periods]}
        argv.append(_write(path + ".json", trace, write))
    argv += ["--solver", solver, "--split", "equal"]
    return argv, {"n": n, "solver": solver, "periods": periods}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    slots: list
    make: object      # (rng, slot, path, write) -> (argv, info)
    lattices: tuple   # (tag, n) of every lattice the requests use, set up first


WORKLOADS = {
    "solve-mix": Workload(SOLVE_SLOTS, _solve_request,
                          (("2^N", 6), ("2^N", 7), ("2^N", 8), ("P^N", 5), ("P^N", 6),
                           ("P^N", 7), ("E^N", 4), ("E^N", 5), ("E^N", 6))),
    "core-small": Workload(CORE_SLOTS, _core_request,
                           (("2^N", 5), ("P^N", 4), ("P^N", 5), ("E^N", 3), ("E^N", 4))),
    "netshare-n6": Workload(NETSHARE_SLOTS, _netshare_request, (("P^N", NETSHARE_N),)),
}


def _label(slot):
    parts = []
    for p in slot:
        parts.extend(p if isinstance(p, tuple) else [p])
    return " ".join(str(p) for p in parts)


def rounds(workload, seed, directory, write=True):
    """A workload's stream, one round (a list of Requests) at a time, without
    end; input files go into ``directory`` unless ``write`` is false, which
    rebuilds the same requests without touching the disk."""
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for r in itertools.count():
        order = list(range(len(wl.slots)))
        rng.shuffle(order)
        batch = []
        for pos, s in enumerate(order):
            slot = wl.slots[s]
            argv, info = wl.make(rng, slot, os.path.join(directory, f"r{r}-{pos}"), write)
            batch.append(Request(_label(slot), argv, info))
        yield batch


def generate(workload, seed, count, directory, write=True):
    """The first ``count`` rounds of a workload's stream (see rounds)."""
    return list(itertools.islice(rounds(workload, seed, directory, write), count))
