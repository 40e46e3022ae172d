"""Command-line front end: solve games, test cores, share network traffic.

Reports are deterministic: JSON with keys in a fixed order and every
rational rendered "p/q", or CSV with an extra column of decimal
approximations clearly marked as such.  Exit codes: 0 on success, 1 when
the self-check bundle finds a mismatch, 2 on malformed input, 3 when a
size cap (of the ground set, or of Python's int-string digits) is hit.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

from .lattice import (
    SizeLimitError,
    bell,
    class_count,
    class_vectors,
    ground_cap,
    lattice_for,
    parse_int,
)
from .transform import (
    LatticeGame,
    MobiusCoefficients,
    _known_keys,
    _over_lcm,
    _parse_int,
    _ratio,
    format_fraction,
    parse_fraction,
    zeta_game,
)
from .games import clustering_restrict, is_supermodular, is_totally_positive
from .solutions import (
    SOLVERS,
    _edge,
    cu,
    egalitarian,
    is_fixed_point,
    myerson,
    shapley_chain,
    shapley_dividends,
    split_to_nodes,
    su,
    symmetric_solution,
    transport_solution,
)
from .coresep import core_contains, core_feasible, separability_test


def _load_json(path):
    """The JSON document in path, read as UTF-8 (RFC 8259) whatever the
    locale; bytes that are not UTF-8, a key named twice in one object, or
    nesting deeper than the parser's recursion limit, are refused."""
    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise ValueError(f"{path}: key {key!r} is named twice in one object")
        return obj

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, parse_int=_parse_int, object_pairs_hook=unique)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ValueError(f"{path}: {err}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _print_json(report):
    print(json.dumps(report, indent=2))


def _print_csv(header, rows):
    """Write the rows as CSV in UTF-8 whatever the locale, as the inputs
    are read; a stdout with no byte layer (a StringIO) takes the text."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:
        sys.stdout.write(out.getvalue())
    else:
        sys.stdout.flush()
        buffer.write(out.getvalue().encode("utf-8"))


def _approx(p, d):
    """Decimal rendering of p/d (d > 0) for the approximate column, as
    repr(float(Fraction(p, d))): int true division rounds correctly, so
    it reads the same off unreduced ints; empty past a float's range."""
    try:
        return repr(p / d)
    except OverflowError:
        return ""


def _rows(kind, texts, ratios, *lead):
    """One CSV row (*lead, kind, key, value, approx) per entry of texts;
    ratios holds the (p, d) each value was printed from, in that order."""
    return [(*lead, kind, key, text, _approx(p, d))
            for (key, text), (p, d) in zip(texts.items(), ratios)]


def _parse_edge(key, n):
    try:
        i, j = (parse_int(tok) for tok in str(key).split(","))
    except ValueError:
        raise ValueError(f"bad edge key {key!r}; expected \"i,j\"") from None
    return _edge(i, j, n)


def _edge_table(items, n, where):
    """{(i, j): value} from (edge key, value) pairs, each edge named once."""
    table = {}
    for key, value in items:
        edge = _parse_edge(key, n)
        if edge in table:
            raise ValueError(f"{where}: duplicate edge {key}")
        table[edge] = value
    return table


def _parse_weights(path, n):
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: weight file must map edges to weight pairs")
    weights = _edge_table(raw.items(), n, path)
    for (i, j), pair in weights.items():
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"weights for edge {i},{j} must be a pair")
        weights[i, j] = (parse_fraction(pair[0]), parse_fraction(pair[1]))
    return weights


def _parse_cluster(lat, raw, where):
    """The element a cluster key names; the key must be a string."""
    if not isinstance(raw, str):
        raise ValueError(f"{where}: expected an element key, got {raw!r}")
    return lat.parse_element(raw)


# ---------------------------------------------------------------------------
# solve


def _load_game(args):
    game = LatticeGame.from_payload(_load_json(args.game), max_n=args.max_n)
    cluster_label = None
    if args.cluster_file:
        raw = _load_json(args.cluster_file)
        if isinstance(raw, dict):
            _known_keys(raw, ("cluster",), args.cluster_file)
            raw = raw.get("cluster")
        cluster = _parse_cluster(game.lattice, raw, args.cluster_file)
        game = clustering_restrict(game, cluster)
        cluster_label = game.lattice.key(cluster)
    return game, cluster_label


def cmd_solve(args):
    if args.graph_file is not None and args.solver != "myerson":
        raise ValueError("--graph-file applies only to the myerson solver")
    game, cluster_label = _load_game(args)
    # every solver's shares are unmoved by a constant shift of the game
    # (graph_restrict shifts its output by the same constant), so the
    # game goes in unshifted and the shift is only reported
    shift = Fraction(0) if args.no_bottom_normalize else game.bottom_value
    if args.solver == "myerson":
        if not args.graph_file:
            raise ValueError("the myerson solver needs --graph-file")
        sol = myerson(game, _load_edges(args.graph_file))
    else:
        sol = SOLVERS[args.solver](game)
    as_csv = args.format == "csv"
    if as_csv:
        lat = sol.lattice
        shares, total = sol._rendered()
        rows = [("meta", "lattice", lat.tag, ""),
                ("meta", "n", str(lat.n), ""),
                ("meta", "solver", args.solver, ""),
                ("meta", "bottomShift", format_fraction(shift), "")]
        rows += _rows("share", *shares)
        rows += _rows("efficiency", *total)
    else:
        report = {"command": "solve", "solver": args.solver}
        report.update(sol.payload())
        report["normalized"] = not args.no_bottom_normalize
        report["bottomShift"] = format_fraction(shift)
        if cluster_label is not None:
            report["clustering"] = cluster_label
    if args.split is not None:
        weights = None
        if args.split != "equal":
            weights = _parse_weights(args.split, game.lattice.n)
        nodes = split_to_nodes(sol, weights)
        if as_csv:
            rows += _rows("node", *nodes._rendered())
        else:
            report["nodeShares"] = nodes.payload()["shares"]
    if as_csv:
        _print_csv(("kind", "key", "value", "approx"), rows)
    else:
        _print_json(report)
    return 0


def _load_edges(path):
    raw = _load_json(path)
    if isinstance(raw, dict):
        _known_keys(raw, ("edges",), path)
        raw = raw.get("edges")
    if not isinstance(raw, list):
        raise ValueError(f"{path}: expected an \"edges\" list")
    return raw


# ---------------------------------------------------------------------------
# core


# P^7's 877 elements: the largest lattice whose core LP finishes in minutes
# rather than hours (README "Scale")
CORE_MAX_ELEMENTS = bell(7)


def cmd_core(args):
    game, _ = _load_game(args)
    shift = Fraction(0)
    if not args.no_bottom_normalize:  # the core's bounds read f(bottom)
        game, shift = game.normalize_bottom()
    lat = game.lattice
    if len(lat) > CORE_MAX_ELEMENTS:
        raise SizeLimitError(f"core decides lattices of at most {CORE_MAX_ELEMENTS} elements "
                             f"(P^7); {lat.describe()} has {len(lat)}")
    result = core_feasible(game)
    # f(x v y) + f(x ^ y) - f(x) - f(y) is the Mobius mass on the z below
    # x v y and below neither x nor y, so nonnegative mass settles it.
    positive = is_totally_positive(game)
    supermod = positive or is_supermodular(game)
    report = {"command": "core"}
    report.update(result.payload())
    report["violated"] = []
    report["normalized"] = not args.no_bottom_normalize
    report["bottomShift"] = format_fraction(shift)
    report["supermodular"] = bool(supermod)
    report["supermodularWitness"] = (
        None if supermod else [lat.key(supermod.witness[0]),
                               lat.key(supermod.witness[1])])
    report["totallyPositive"] = bool(positive)
    report["negativeDividendAt"] = None if positive else lat.key(positive.witness)
    if args.format == "csv":
        rows = [("meta", "lattice", report["lattice"], ""),
                ("meta", "n", str(report["n"]), ""),
                ("status", "", report["status"], ""),
                ("supermodular", "", str(report["supermodular"]).lower(), ""),
                ("totallyPositive", "", str(report["totallyPositive"]).lower(), "")]
        if result.witness is not None:
            rows += _rows("witness", *result.witness._rendered()[0])
        if result.certificate is not None:
            cert, (multipliers, lam) = report["certificate"], result.certificate
            rows += _rows("certificateLowerBound", cert["lowerBounds"],
                          map(Fraction.as_integer_ratio, multipliers.values()))
            rows += _rows("certificateEfficiency", {"": cert["efficiency"]},
                          [lam.as_integer_ratio()])
        _print_csv(("kind", "key", "value", "approx"), rows)
    else:
        _print_json(report)
    return 0


# ---------------------------------------------------------------------------
# netshare


def _read_trace(path):
    """Traffic trace: JSON with a periods array, or CSV period,i,j,volume."""
    n, raw = (_trace_csv if path.endswith(".csv") else _trace_json)(path)
    periods = []
    seen = set()  # labels as text, the keys of a --cluster-file object
    for label, volumes, clustering in raw:
        if str(label) in seen:
            raise ValueError(f"{path}: period {label} is named twice")
        seen.add(str(label))
        edges = _edge_table(volumes, n, f"period {label}")
        for (i, j), text in edges.items():
            edges[i, j] = q = parse_fraction(text)
            if q < 0:
                raise ValueError(f"period {label}: negative volume on edge {i},{j}")
        periods.append({"period": label, "volumes": edges, "clustering": clustering})
    return n, periods


def _trace_json(path):
    raw = _load_json(path)
    if not isinstance(raw, dict) or not isinstance(raw.get("periods"), list):
        raise ValueError(f"{path}: expected an object with \"n\" and a \"periods\" list")
    _known_keys(raw, ("n", "periods"), path)
    n = raw.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"{path}: \"n\" must be an integer")
    periods = []
    for idx, entry in enumerate(raw["periods"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: period {idx} is not an object")
        _known_keys(entry, ("period", "volumes", "clustering"), f"{path}: period {idx}")
        label = entry.get("period", idx)
        volumes = entry.get("volumes", {})
        if not isinstance(volumes, dict):
            raise ValueError(f"{path}: period {label}: \"volumes\" must be an object")
        periods.append((label, volumes.items(), entry.get("clustering")))
    return n, periods


def _trace_csv(path):
    """Rows grouped by period label; n is the largest node id named."""
    periods = {}
    n = 0
    with open(path, newline="", encoding="utf-8") as fh:
        rows = _csv_rows(fh, path)
        header = next(rows, None)
        if header is None or [h.strip() for h in header] != ["period", "i", "j", "volume"]:
            raise ValueError(f"{path}: expected header period,i,j,volume")
        for lineno, row in enumerate(rows, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 columns")
            label, i, j, volume = (cell.strip() for cell in row)
            try:
                n = max(n, parse_int(i), parse_int(j))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad edge {i!r},{j!r}") from None
            periods.setdefault(label, []).append((f"{i},{j}", volume))
    if n < 2:
        raise ValueError(f"{path}: trace names fewer than two network elements")
    return n, [(label, volumes, None) for label, volumes in periods.items()]


def _csv_rows(fh, path):
    """The CSV rows of fh; a row the csv module cannot read, such as one
    with a field over csv.field_size_limit(), is refused as path:line,
    and bytes that are not UTF-8 as path (fh decodes ahead of the rows)."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as err:
        raise ValueError(f"{path}:{reader.line_num}: {err}") from None
    except UnicodeDecodeError as err:
        raise ValueError(f"{path}: {err}") from None


def _cluster_map(path, periods):
    """{period label as text: the raw clustering the file names for it}."""
    raw = _load_json(path)
    labels = {str(entry["period"]) for entry in periods}
    if isinstance(raw, str):
        return dict.fromkeys(labels, raw)
    if isinstance(raw, dict):
        for key in raw:
            if key not in labels:
                raise ValueError(f"{path}: no period of the trace is labelled {key!r}")
        return raw
    raise ValueError(f"{path}: expected a partition key or a period-to-key object")


def _period_dividends(lat, volumes, cluster=None):
    """A period's Mobius mass: edge k's volume sits on the atom of mask bit
    k, kept under a cluster only when bit k is set in the cluster's mask."""
    kept = lat.masks[-1 if cluster is None else lat.index(cluster)]
    atoms = {lat.mask_index(1 << k): _ratio(volumes.get(edge, 0))
             for k, edge in enumerate(combinations(range(1, lat.n + 1), 2)) if kept >> k & 1}
    ints, d = _over_lcm(atoms.values())  # the other entries are 0
    mass = [0] * len(lat)
    for i, q in zip(atoms, ints):
        mass[i] = q
    return MobiusCoefficients._from_ints(lat, mass, d)


def cmd_netshare(args):
    n, periods = _read_trace(args.trace)
    solver = SOLVERS[args.solver]
    lat = lattice_for("P^N", n, args.max_n)
    overrides = _cluster_map(args.cluster_file, periods) if args.cluster_file else {}
    weights = None
    if args.split and args.split != "equal":
        weights = _parse_weights(args.split, n)
    edge_keys = [f"{i},{j}" for i, j in combinations(range(1, n + 1), 2)]  # mask-bit order
    out_periods = []
    rendered = []  # per period, its rendered edge shares, node shares and total
    for entry in periods:
        # a file entry wins, even a null one, which _parse_cluster refuses
        key = str(entry["period"])
        label = overrides.get(key, entry["clustering"])
        cluster = None if label is None and key not in overrides else \
            _parse_cluster(lat, label, f"period {entry['period']}: clustering")
        mu = _period_dividends(lat, entry["volumes"], cluster)
        sol = solver(mu.zeta_expand())
        edges, total = sol._rendered(edge_keys)
        nodes = split_to_nodes(sol, weights)._rendered()
        rendered.append((edges, nodes, total))
        out_periods.append({
            "period": entry["period"],
            "clustering": None if cluster is None else lat.key(cluster),
            "edgeShares": edges[0],
            "nodeShares": nodes[0],
            "efficiencyCheck": total[0][""],
            "fixedPoint": sol.matches(mu),
        })
    report = {"command": "netshare", "n": n, "solver": args.solver,
              "split": "equal" if weights is None else args.split,
              "periods": out_periods}
    if args.format == "csv":
        rows = []
        for entry, (edges, nodes, total) in zip(out_periods, rendered):
            label = entry["period"]
            rows.append((label, "clustering", "", entry["clustering"] or "", ""))
            rows += _rows("edgeShare", *edges, label)
            rows += _rows("nodeShare", *nodes, label)
            rows += _rows("efficiency", *total, label)
            rows.append((label, "fixedPoint", "", str(entry["fixedPoint"]).lower(), ""))
        _print_csv(("period", "kind", "key", "value", "approx"), rows)
    else:
        _print_json(report)
    return 0


# ---------------------------------------------------------------------------
# selfcheck: the worked examples as an executable regression bundle


def _expect(cond, detail):
    return None if cond else detail


def _lattice(tag, n):
    """A check's lattice, uncapped: the bundle skips checks over the cap."""
    return lattice_for(tag, n, n + 1)


def _check_pair_shares_on_partitions():
    lat = _lattice("P^N", 3)
    z = zeta_game(lat, lat.parse_element("1,2|3"))
    su_vec = su(z).vector()
    cu_vec = cu(z).vector()
    return _expect(su_vec == (1, 0, 0)
                   and cu_vec == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)),
                   f"su {su_vec}, cu {cu_vec}")


def _check_pair_shares_on_embedded():
    lat = _lattice("E^N", 2)
    z = zeta_game(lat, lat.parse_element(";1,2"))
    su_vec = su(z).vector()
    cu_vec = cu(z).vector()
    return _expect(su_vec == (0, 0, 1)
                   and cu_vec == (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)),
                   f"su {su_vec}, cu {cu_vec}")


def _check_transport_of_pair_example():
    e2 = _lattice("E^N", 2)
    p3 = _lattice("P^N", 3)
    z = zeta_game(e2, e2.parse_element(";1,2"))
    moved = transport_solution(su(z))
    target = su(zeta_game(p3, p3.parse_element("1,2|3")))
    return _expect(moved == target, "transported shares disagree")


def _check_rank_thirds():
    for tag, n in [("P^N", 3), ("E^N", 2)]:
        lat = _lattice(tag, n)
        g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
        for solver in (su, cu, egalitarian):
            vec = solver(g).vector()
            if vec != (Fraction(2, 3),) * 3:
                return f"{tag} {solver.__name__} gave {vec}"
    return None


def _check_full_surplus_shares():
    lat = _lattice("P^N", 3)
    g = 3 * zeta_game(lat, lat.top)
    for solver in (su, cu, egalitarian, symmetric_solution):
        vec = solver(g).vector()
        if vec != (1, 1, 1):
            return f"{solver.__name__} gave {vec}"
    return None


def _check_size_uniform():
    lat = _lattice("P^N", 4)
    g = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
    fast = symmetric_solution(g).vector()
    return _expect(fast == su(g).vector() == cu(g).vector() == (1,) * 6,
                   f"got {fast}")


def _check_empty_core():
    lat = _lattice("P^N", 3)
    g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    report = core_feasible(g)
    return _expect(is_supermodular(g).holds
                   and not is_totally_positive(g).holds
                   and report.status == "empty"
                   and report.certificate is not None,
                   f"status {report.status}")


def _check_size_core_witness():
    lat = _lattice("P^N", 3)
    g = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
    report = core_feasible(g)
    return _expect(report.status == "nonempty"
                   and core_contains(g, report.witness).holds,
                   f"status {report.status}")


def _check_myerson_path():
    lat = _lattice("2^N", 3)
    sol = myerson(zeta_game(lat, frozenset({1, 3})), [(1, 2), (2, 3)])
    third = Fraction(1, 3)
    return _expect(sol.vector() == (third, third, third), f"got {sol.vector()}")


def _check_shapley_forms():
    rng = random.Random(2024)
    lat = _lattice("2^N", 4)
    g = LatticeGame(lat, {x: Fraction(rng.randint(-20, 20), rng.randint(1, 5))
                          for x in lat.elements})
    if shapley_chain(g) != shapley_dividends(g):
        return "permutation and dividend forms disagree"
    z = zeta_game(lat, frozenset({1, 3}))
    vec = shapley_dividends(z).vector()
    return _expect(vec == (Fraction(1, 2), 0, Fraction(1, 2), 0), f"got {vec}")


def _check_rank_separation():
    lat = _lattice("P^N", 4)
    g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    report = separability_test(g)
    if not report:
        return f"rank reported non-separable at {lat.key(report.violated)}"
    base = report.family.base
    if any(base[g_] != len(g_) - 1 for g_ in base if g_):
        return "base is not |A|-1"
    variant = _alternating_pattern(4, lambda k: (-1) ** k if k > 1 else 0)
    return _expect(report.family.contains(variant), "alternating variant rejected")


def _check_size_separation():
    lat = _lattice("P^N", 4)
    g = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
    report = separability_test(g)
    if not report:
        return f"size reported non-separable at {lat.key(report.violated)}"
    base = report.family.base
    if any(base[g_] != len(g_) * (len(g_) - 1) // 2 for g_ in base):
        return "base is not C(|A|,2)"
    variant = _alternating_pattern(4, lambda k: (-1) ** (k + 1) if k != 2 else 0)
    return _expect(report.family.contains(variant), "alternating variant rejected")


def _alternating_pattern(n, mu_of_size):
    v = {}
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            v[frozenset(combo)] = sum(comb(size, k) * Fraction(mu_of_size(k))
                                      for k in range(size + 1))
    return v


def _check_nonseparable_witness():
    lat = _lattice("P^N", 4)
    report = separability_test(zeta_game(lat, lat.parse_element("1,2|3,4")))
    return _expect(not report and report.violated == lat.parse_element("1,2|3,4"),
                   "two-pair indicator not flagged")


def _check_netshare_volumes():
    lat = _lattice("P^N", 3)
    game = _period_dividends(lat, {(1, 2): 4, (1, 3): 1, (2, 3): 0}).zeta_expand()
    sol = su(game)
    if sol.vector() != (4, 1, 0) or not is_fixed_point(su, game):
        return f"edge shares {sol.vector()}"
    nodes = split_to_nodes(sol).vector()
    return _expect(nodes == (Fraction(5, 2), 2, Fraction(1, 2)), f"nodes {nodes}")


def _check_netshare_clustered():
    lat = _lattice("P^N", 3)
    mu = _period_dividends(lat, {(1, 2): 4, (1, 3): 1}, lat.parse_element("1,2|3"))
    vec = su(mu.zeta_expand()).vector()
    return _expect(vec == (4, 0, 0), f"got {vec}")


def _check_chain_totals():
    for tag, n, total in [("P^N", 4, 18), ("P^N", 5, 180), ("E^N", 3, 18)]:
        lat = _lattice(tag, n)
        if lat.chain_count_total() != total:
            return f"{tag} n={n}: {lat.chain_count_total()} != {total}"
        if len(lat.maximal_chains()) != total:
            return f"{tag} n={n}: enumeration disagrees"
    return None


def _check_class_counts():
    for n in range(1, 9):  # arithmetic only, so at every size up to the default cap
        if sum(class_count(c) for c in class_vectors(n)) != bell(n):
            return f"class counts at n={n} do not sum to the Bell number"
    return None


CHECKS = [
    ("pair-shares-partitions", 3, _check_pair_shares_on_partitions),
    ("pair-shares-embedded", 3, _check_pair_shares_on_embedded),
    ("transport-pair-example", 3, _check_transport_of_pair_example),
    ("rank-thirds", 3, _check_rank_thirds),
    ("full-surplus-shares", 3, _check_full_surplus_shares),
    ("size-uniform", 4, _check_size_uniform),
    ("empty-core", 3, _check_empty_core),
    ("size-core-witness", 3, _check_size_core_witness),
    ("myerson-path", 3, _check_myerson_path),
    ("shapley-forms", 4, _check_shapley_forms),
    ("rank-separation", 4, _check_rank_separation),
    ("size-separation", 4, _check_size_separation),
    ("nonseparable-witness", 4, _check_nonseparable_witness),
    ("netshare-volumes", 3, _check_netshare_volumes),
    ("netshare-clustered", 3, _check_netshare_clustered),
    ("chain-totals", 5, _check_chain_totals),
    ("class-counts", 1, _check_class_counts),
]


def cmd_selfcheck(args):
    cap = ground_cap(args.max_n)
    failures = 0
    skipped = 0
    for name, ground, fn in CHECKS:
        if ground > cap:
            print(f"skip {name} (needs ground size {ground}, cap is {cap})")
            skipped += 1
            continue
        try:
            detail = fn()
        except Exception as err:  # a crash is a failure of that check
            detail = f"{type(err).__name__}: {err}"
        if detail is None:
            print(f"ok   {name}")
        else:
            print(f"FAIL {name}: {detail}")
            failures += 1
    ran = len(CHECKS) - skipped
    tail = f", {skipped} skipped" if skipped else ""
    print(f"{ran - failures}/{ran} checks passed{tail}")
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument plumbing


def _max_n(text):
    """The --max-n value, 1 or more; argparse prints a refusal's message as it stands."""
    try:
        cap = parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"takes an integer in ASCII digits, got {text!r}") from None
    if cap < 1:
        raise argparse.ArgumentTypeError(f"takes a size cap of at least 1, got {text!r}")
    return cap


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lattice-games",
        description="Exact cooperative-game solutions on subset, partition, "
                    "and embedded-subset lattices.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    solve = sub.add_parser("solve", help="solve a game file for atom shares")
    solve.add_argument("game", help="JSON game file")
    solve.add_argument("--solver", default="su",
                       choices=["shapley", "su", "cu", "egalitarian", "myerson"])
    solve.add_argument("--graph-file", help="JSON edge list for the myerson solver")
    solve.add_argument("--split", metavar="equal|WEIGHTS",
                       help="split edge shares to nodes (partition games only)")
    solve.add_argument("--cluster-file", help="JSON element key to restrict to")
    solve.add_argument("--no-bottom-normalize", action="store_true")
    solve.add_argument("--max-n", type=_max_n)
    solve.add_argument("--format", default="json", choices=["json", "csv"])
    solve.set_defaults(func=cmd_solve)

    core = sub.add_parser("core", help="decide core feasibility of a game file")
    core.add_argument("game", help="JSON game file")
    core.add_argument("--cluster-file", help="JSON element key to restrict to")
    core.add_argument("--no-bottom-normalize", action="store_true")
    core.add_argument("--max-n", type=_max_n)
    core.add_argument("--format", default="json", choices=["json", "csv"])
    core.set_defaults(func=cmd_core)

    net = sub.add_parser("netshare",
                         help="share per-period traffic surplus across edges")
    net.add_argument("trace", help="JSON trace or CSV with period,i,j,volume")
    net.add_argument("--solver", default="su",
                     choices=["su", "cu", "egalitarian"])
    net.add_argument("--split", default="equal", metavar="equal|WEIGHTS")
    net.add_argument("--cluster-file",
                     help="partition key, or JSON object period -> key")
    net.add_argument("--max-n", type=_max_n)
    net.add_argument("--format", default="json", choices=["json", "csv"])
    net.set_defaults(func=cmd_netshare)

    check = sub.add_parser("selfcheck",
                           help="run the bundled worked examples and report")
    check.add_argument("--max-n", type=_max_n)
    check.set_defaults(func=cmd_selfcheck)
    return parser


@cache
def _parser():
    """The parser, built once per process: parsing reads it, never changes it."""
    return build_parser()


def _parse(argv):
    """The Namespace _parser().parse_args(argv) gives.  When argv opens
    with a subcommand, that subcommand's parser reads the rest, as the
    full parser would hand it on; anything it leaves, and any other argv,
    goes to the full parser, which words every refusal."""
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv:
        subs = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
        sub = subs.get(argv[0])
        if sub is not None:
            args, extra = sub.parse_known_args(argv[1:], argparse.Namespace(subcommand=argv[0]))
            if not extra:
                return args
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    try:
        return args.func(args)
    except SizeLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
