"""Correctness checks for every report the benchmark times.

Each check recomputes what it can from the benchmark's own inputs and its
own lattice model (workloads.Model): efficiency totals, core witnesses and
Farkas certificates, traffic volumes.  Two solver checks compare against
the package's slow reference forms, which the timed requests never call:
cu against the chain census on P^5 and E^4, shapley against the
permutation form on 2^6.

``check`` returns None for a correct report and a one-line reason
otherwise.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from workloads import game_payload, model

ORACLE_CU = {("P^N", 5), ("E^N", 4)}
ORACLE_SHAPLEY = {("2^N", 6)}


class Mismatch(Exception):
    pass


def _expect(cond, what):
    if not cond:
        raise Mismatch(what)


def check(req, text):
    """None when the report is right for this request, else the reason."""
    try:
        {"solve": _check_solve, "core": _check_core,
         "netshare": _check_netshare}[req.argv[0]](req.info, text)
    except Mismatch as err:
        return str(err)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as err:
        return f"unreadable report: {type(err).__name__}: {err}"
    return None


# ---------------------------------------------------------------------------
# solve


def read_solve(text, is_csv):
    """Solve report as {"shares", "efficiencyCheck", "bottomShift", "nodeShares"?, ...}."""
    if not is_csv:
        return json.loads(text)
    rows = list(csv.reader(io.StringIO(text)))
    _expect(rows[0] == ["kind", "key", "value", "approx"], "bad CSV header")
    out = {"shares": {}}
    for kind, key, value, _ in rows[1:]:
        if kind == "meta":
            out[key] = value
        elif kind == "share":
            out["shares"][key] = value
        elif kind == "node":
            out.setdefault("nodeShares", {})[key] = value
        elif kind == "efficiency":
            out["efficiencyCheck"] = value
    return out


def _oracle_game(info):
    """The game the solver saw, rebuilt through the package's own reader."""
    # imported here: run.py puts the package on the path only once it has
    # found the source tree
    from lattice_games import LatticeGame, clustering_restrict
    game = LatticeGame.from_payload(game_payload(model(info["tag"], info["n"]),
                                                 info["values"]))
    if info["cluster"] is not None:
        game = clustering_restrict(game, game.lattice.parse_element(info["cluster"]))
    return game.normalize_bottom()[0]


def _oracle_shares(info):
    from lattice_games import cu_chain_oracle, shapley_chain
    fn = cu_chain_oracle if info["solver"] == "cu" else shapley_chain
    sol = fn(_oracle_game(info))
    lat = sol.lattice
    return {lat.key(a): q for a, q in sol.shares.items()}


def _check_solve(info, text):
    mod = model(info["tag"], info["n"])
    f = info["values"]
    report = read_solve(text, info["csv"])
    shares = {k: Fraction(v) for k, v in report["shares"].items()}
    _expect(list(shares) == [key for key, _ in mod.atoms], "shares are not one per atom")
    top = info["cluster"] if info["cluster"] is not None else mod.top
    expected = f[top] - f[mod.bottom]
    total = sum(shares.values(), Fraction(0))
    _expect(Fraction(report["efficiencyCheck"]) == total, "shares do not sum to efficiencyCheck")
    _expect(total == expected, f"efficiency {total} != normalized top - bottom {expected}")
    _expect(Fraction(report["bottomShift"]) == f[mod.bottom], "wrong bottomShift")
    if not info["csv"]:
        _expect(report.get("clustering") == info["cluster"], "wrong clustering label")
    if info["split"]:
        nodes = report["nodeShares"]
        _expect(list(nodes) == [str(i) for i in range(1, mod.n + 1)], "node keys")
        _expect(sum(map(Fraction, nodes.values()), Fraction(0)) == total,
                "node shares do not sum to the efficiency total")
    if info["solver"] == "egalitarian":
        _expect(all(q == expected / len(mod.atoms) for q in shares.values()),
                "egalitarian shares are not equal")
    key = (info["tag"], info["n"])
    if (info["solver"] == "cu" and key in ORACLE_CU) or \
            (info["solver"] == "shapley" and key in ORACLE_SHAPLEY):
        _expect(shares == _oracle_shares(info),
                f"{info['solver']} disagrees with its reference form")


# ---------------------------------------------------------------------------
# core


def _check_core(info, text):
    mod = model(info["tag"], info["n"])
    f = info["values"]
    g = {x: q - f[mod.bottom] for x, q in f.items()}
    report = json.loads(text)
    _expect(Fraction(report["bottomShift"]) == f[mod.bottom], "wrong bottomShift")
    status = report["status"]
    if status == "nonempty":
        w = {k: Fraction(v) for k, v in report["witness"].items()}
        _expect(sorted(w) == sorted(key for key, _ in mod.atoms), "witness is not one per atom")
        _expect(sum(w.values(), Fraction(0)) == g[mod.top], "witness misses the efficiency row")
        for x, _ in mod.elements:
            _expect(sum((w[a] for a in mod.atoms_below(x)), Fraction(0)) >= g[x],
                    f"witness violates the lower bound at {x}")
    elif status == "empty":
        cert = report["certificate"]
        y = {x: Fraction(v) for x, v in cert["lowerBounds"].items()}
        lam = Fraction(cert["efficiency"])
        _expect(all(q >= 0 for q in y.values()), "negative certificate multiplier")
        for a, _ in mod.atoms:
            weight = sum((q for x, q in y.items() if a in mod.atoms_below(x)), Fraction(0))
            _expect(weight + lam == 0, f"certificate does not cancel atom {a}")
        value = sum((q * g[x] for x, q in y.items()), Fraction(0)) + lam * g[mod.top]
        _expect(value > 0, "certificate total is not positive")
    else:
        raise Mismatch(f"unknown status {status!r}")
    _expect(status == info["status"], f"status {status}, expected {info['status']}")
    if info["status"] == "nonempty":
        _expect(report["supermodular"] is True and report["totallyPositive"] is True,
                "totally-positive game not reported supermodular and totally positive")


# ---------------------------------------------------------------------------
# netshare


def _check_netshare(info, text):
    n = info["n"]
    report = json.loads(text)
    _expect(len(report["periods"]) == len(info["periods"]), "period count")
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for got, (label, volumes, cluster) in zip(report["periods"], info["periods"]):
        _expect(got["period"] == label, "period label")
        _expect(got["clustering"] == cluster, f"{label}: wrong clustering")
        block = {}
        for b, part in enumerate((cluster or ",".join(map(str, range(1, n + 1)))).split("|")):
            for x in part.split(","):
                block[int(x)] = b
        within = {e: q for e, q in volumes.items() if block[e[0]] == block[e[1]]}
        expected = sum(within.values(), Fraction(0))
        shares = {k: Fraction(v) for k, v in got["edgeShares"].items()}
        _expect(list(shares) == [f"{i},{j}" for i, j in edges], f"{label}: edge keys")
        total = Fraction(got["efficiencyCheck"])
        _expect(total == expected, f"{label}: efficiency {total} != volume total {expected}")
        _expect(sum(shares.values(), Fraction(0)) == total, f"{label}: edge shares sum")
        _expect(sum(map(Fraction, got["nodeShares"].values()), Fraction(0)) == total,
                f"{label}: node shares do not sum to the efficiency total")
        if info["solver"] == "su":
            _expect(all(shares[f"{i},{j}"] == within.get((i, j), 0) for i, j in edges),
                    f"{label}: su edge shares differ from the volumes")
            _expect(got["fixedPoint"] is True, f"{label}: su period is not a fixed point")
