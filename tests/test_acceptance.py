"""Acceptance suite: one check per shipping requirement, one printed line
each (run pytest with -s to see them).

Every check is an exact rational computation at desk scale; frozen values
come from worked examples that were derived by hand, everything else is
cross-checked against an independent oracle or enumeration.
"""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from lattice_games.lattice import (
    CHAIN_CAP,
    bell,
    class_count,
    class_vectors,
    ground_cap,
    lattice_for,
)
from lattice_games.transform import LatticeGame, MobiusCoefficients, mobius, zeta_game
from lattice_games.games import SymmetricGame, is_supermodular, is_totally_positive
from lattice_games.solutions import (
    cu,
    cu_chain_oracle,
    egalitarian,
    is_fixed_point,
    shapley_chain,
    shapley_dividends,
    su,
    symmetric_solution,
    transport_solution,
)
from lattice_games.coresep import core_feasible, separability_test
from lattice_games import cli


def run_check(number, label, body):
    try:
        body()
    except Exception:
        print(f"acceptance {number:2d} ({label}): FAIL", flush=True)
        raise
    print(f"acceptance {number:2d} ({label}): pass", flush=True)


def random_game(lat, rng):
    return LatticeGame(lat, {x: Fraction(rng.randint(-30, 30), rng.randint(1, 6))
                             for x in lat.elements})


THIRD = Fraction(1, 3)


def chains_through(lat, x):
    """The paper's closed form on P^N, read on the image in P^(n+1) for
    E^N: r! prod |b|! / 2^r maximal chains below a partition of rank r,
    times k!(k-1)!/2^(k-1) above it, k its number of blocks."""
    p = x if lat.tag == "P^N" else lat.inner.elements[lat.index(x)]
    r, k = p.rank, len(p.blocks)
    below = factorial(r)
    for b in p.blocks:
        below *= factorial(len(b))
    return below // 2 ** r * (factorial(k) * factorial(k - 1) // 2 ** (k - 1))


def test_acceptance_01_pair_shares_on_partitions():
    def body():
        start = time.perf_counter()
        lat = lattice_for("P^N", 3)
        z = zeta_game(lat, lat.parse_element("1,2|3"))
        assert su(z).vector() == (1, 0, 0)
        assert cu(z).vector() == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))
        assert time.perf_counter() - start < 1.0

    run_check(1, "pair-merge shares on the partition lattice", body)


def test_acceptance_02_pair_shares_on_embedded_subsets():
    def body():
        lat = lattice_for("E^N", 2)
        z = zeta_game(lat, lat.parse_element(";1,2"))
        su_here, cu_here = su(z), cu(z)
        assert su_here.vector() == (0, 0, 1)
        assert cu_here.vector() == (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3))
        p3 = lattice_for("P^N", 3)
        z3 = zeta_game(p3, p3.parse_element("1,2|3"))
        assert transport_solution(su_here) == su(z3)
        assert transport_solution(cu_here) == cu(z3)

    run_check(2, "embedded-subset shares and their transport", body)


def test_acceptance_03_rank_game_thirds():
    def body():
        for tag, n in [("P^N", 3), ("E^N", 2)]:
            lat = lattice_for(tag, n)
            g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
            for solver in (su, cu, egalitarian):
                assert solver(g).vector() == (Fraction(2, 3),) * 3

    run_check(3, "rank game pays two thirds per atom", body)


def test_acceptance_04_empty_core_regression():
    def body():
        start = time.perf_counter()
        lat = lattice_for("P^N", 3)
        g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
        assert is_supermodular(g).holds
        positive = is_totally_positive(g)
        assert not positive.holds and positive.witness == lat.top
        assert mobius(g).coefficients[lat.top] == -1
        report = core_feasible(g)
        assert report.status == "empty"
        multipliers, lam = report.certificate
        # independent Farkas verification, straight from the definitions
        assert all(q > 0 for q in multipliers.values())
        for a in lat.atoms:
            acc = lam
            for x, q in multipliers.items():
                if lat.leq(a, x):
                    acc += q
            assert acc == 0
        total = lam * g.top_value
        for x, q in multipliers.items():
            total += q * g.values[x]
        assert total > 0
        assert time.perf_counter() - start < 1.0

    run_check(4, "supermodular game with an empty core, certified", body)


def test_acceptance_05_shapley_forms_agree():
    def body():
        rng = random.Random(5)
        for n in range(2, 7):
            lat = lattice_for("2^N", n)
            for _ in range(200):
                g = random_game(lat, rng)
                assert shapley_chain(g) == shapley_dividends(g)
            for size in range(1, n + 1):
                who = frozenset(range(1, size + 1))
                sol = shapley_dividends(zeta_game(lat, who))
                for a in lat.atoms:
                    i = next(iter(a))
                    assert sol[a] == (Fraction(1, size) if i in who else 0)

    run_check(5, "both Shapley forms agree on random coalition games", body)


def test_acceptance_06_chain_count_formulas():
    def body():
        jobs = [("P^N", n) for n in range(2, 6)] + [("E^N", n) for n in range(1, 5)]
        for tag, n in jobs:
            lat = lattice_for(tag, n)
            chains = lat.maximal_chains()
            total = lat.chain_count_total()
            assert len(chains) == total
            if tag == "P^N":
                assert total == factorial(n) * factorial(n - 1) // 2 ** (n - 1)
            else:
                assert total == factorial(n + 1) * factorial(n) // 2 ** n
            through = Counter()
            steps = Counter()
            for chain in chains:
                through.update(chain)
                steps.update(zip(chain, chain[1:]))
            _, below, above = lat._hasse()
            for i, x in enumerate(lat.elements):
                assert chains_through(lat, x) == through[x] == below[i] * above[i]
                for j, _ in lat.cover_indices(i):  # the weight cu gives the step
                    assert below[i] * above[j] == steps[(x, lat.elements[j])]

    run_check(6, "chain-count formulas match full enumeration", body)


def test_acceptance_07_cu_equals_chain_oracle():
    def body():
        start = time.perf_counter()
        rng = random.Random(7)
        for tag, n, reps in [("P^N", 4, 50), ("E^N", 3, 20)]:
            lat = lattice_for(tag, n)
            for _ in range(reps):
                g = random_game(lat, rng)
                assert cu(g) == cu_chain_oracle(g)
        assert time.perf_counter() - start < 60.0

    run_check(7, "closed-form chain-uniform value matches the chain oracle", body)


def _axiom_suite_for(tag, n, rng):
    lat = lattice_for(tag, n)
    ground = n + 1 if tag == "E^N" else n
    g, h = random_game(lat, rng), random_game(lat, rng)
    a, b = Fraction(3, 2), Fraction(-2, 5)
    combo = a * g + b * h
    solvers = [su, cu, egalitarian]
    if tag == "2^N":
        solvers += [shapley_dividends, shapley_chain]
    for solver in solvers:
        left = solver(combo).vector()
        gs, hs = solver(g).vector(), solver(h).vector()
        assert left == tuple(a * u + b * v for u, v in zip(gs, hs))
        assert sum(solver(g).vector()) == g.top_value - g.values[lat.bottom]

    mu = mobius(g).coefficients
    rebuilt = {y: sum((mu[x] for x in lat.elements if lat.leq(x, y)), Fraction(0))
               for y in lat.elements}
    assert rebuilt == g.values

    basis = {x: su(zeta_game(lat, x)).vector() for x in lat.elements}
    for solver in (su,) if ground > 4 else (su, cu):
        if solver is cu:
            basis = {x: cu(zeta_game(lat, x)).vector() for x in lat.elements}
        want = solver(g).vector()
        got = [Fraction(0)] * len(lat.atoms)
        for x in lat.elements:
            for j, q in enumerate(basis[x]):
                got[j] += mu[x] * q
        assert tuple(got) == want

    for y in lat.elements:
        if y == lat.bottom:
            continue
        sol = su(zeta_game(lat, y))
        share = Fraction(1, lat.size(y))
        for atom in lat.atoms:
            assert sol[atom] == (share if lat.leq(atom, y) else 0)

    supported = MobiusCoefficients(
        lat, {atom: Fraction(rng.randint(0, 9)) for atom in lat.atoms}).zeta_expand()
    assert is_fixed_point("su", supported)
    scaled_size = Fraction(rng.randint(1, 7), 2) * LatticeGame(
        lat, {x: lat.size(x) for x in lat.elements})
    assert is_fixed_point("cu", scaled_size)
    if ground >= 3:
        for atom in lat.atoms:
            fixed = is_fixed_point("cu", zeta_game(lat, atom))
            assert fixed if tag == "2^N" else not fixed


def test_acceptance_08_axiom_suite():
    def body():
        rng = random.Random(8)
        jobs = ([("2^N", n) for n in range(2, 6)]
                + [("P^N", n) for n in range(2, 6)]
                + [("E^N", n) for n in range(1, 5)])
        for tag, n in jobs:
            _axiom_suite_for(tag, n, rng)

    run_check(8, "linearity, efficiency, basis decompositions, fixed points", body)


def _pattern_game(n, mu_of_size):
    """Set function whose Mobius coefficients depend only on cardinality."""
    v = {}
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            v[frozenset(combo)] = sum(comb(size, k) * Fraction(mu_of_size(k))
                                      for k in range(size + 1))
    return v


def test_acceptance_09_separability():
    def body():
        for n in range(2, 6):
            lat = lattice_for("P^N", n)
            rank = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
            report = separability_test(rank)
            assert report
            assert all(q == len(group) - 1
                       for group, q in report.family.base.items() if group)
            assert report.family.contains(
                _pattern_game(n, lambda k: (-1) ** k if k > 1 else 0))

            size = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
            report = separability_test(size)
            assert report
            assert all(q == comb(len(group), 2)
                       for group, q in report.family.base.items())
            assert report.family.contains(
                _pattern_game(n, lambda k: (-1) ** (k + 1) if k != 2 else 0))

        # the up-set indicator of the top separates on every partition
        # lattice (the full-set indicator is a base), so the smallest
        # non-separable up-set indicator sits at a two-pair merge instead
        for n in range(3, 6):
            lat = lattice_for("P^N", n)
            report = separability_test(zeta_game(lat, lat.top))
            assert report
            full = frozenset(range(1, n + 1))
            assert all(q == (1 if group == full else 0)
                       for group, q in report.family.base.items())
        lat = lattice_for("P^N", 4)
        report = separability_test(zeta_game(lat, lat.parse_element("1,2|3,4")))
        assert not report
        assert report.violated == lat.parse_element("1,2|3,4")
        # on embedded subsets the top indicator does fail, and the test
        # names the witness
        e2 = lattice_for("E^N", 2)
        report = separability_test(zeta_game(e2, e2.top))
        assert not report
        assert report.violated == e2.parse_element(";1,2")

    run_check(9, "separability of rank and size, with honest witnesses", body)


def test_acceptance_10_netshare_fixed_point(tmp_path, capsys):
    def body():
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "n": 3,
            "periods": [
                {"period": "t0", "volumes": {"1,2": "4", "1,3": "1", "2,3": "0"}},
                {"period": "t1", "volumes": {"1,2": "4", "1,3": "1"},
                 "clustering": "1,2|3"},
            ]}))
        assert cli.main(["netshare", str(trace), "--solver", "su"]) == 0
        report = json.loads(capsys.readouterr().out)
        t0, t1 = report["periods"]
        assert t0["edgeShares"] == {"1,2": "4", "1,3": "1", "2,3": "0"}
        assert t0["fixedPoint"] is True
        assert t0["nodeShares"] == {"1": "5/2", "2": "2", "3": "1/2"}
        # clustering keeps only intra-cluster edges earning
        assert t1["edgeShares"] == {"1,2": "4", "1,3": "0", "2,3": "0"}
        assert t1["fixedPoint"] is True

    run_check(10, "traffic shares equal volumes, clustering zeroes the rest", body)


def test_acceptance_11_symmetric_class_counts():
    def body():
        for n in range(1, 9):
            assert sum(class_count(c) for c in class_vectors(n)) == bell(n)
        rng = random.Random(11)
        for n in range(2, 6):
            sym = SymmetricGame("P^N", n, {c: Fraction(rng.randint(-9, 9))
                                           for c in class_vectors(n)})
            fast = symmetric_solution(sym)
            g = sym.expand()
            assert fast == su(g) == cu(g)

    run_check(11, "class counts sum to Bell numbers, symmetric fast path", body)


def test_acceptance_12_desk_scale_note(monkeypatch):
    def body():
        monkeypatch.delenv("LATTICE_GAMES_MAX_N", raising=False)
        assert ground_cap() == 8
        assert CHAIN_CAP == 5

    run_check(12, "every number above is an exact rational computed at desk "
                  "scale (ground cap 8, chain listing cap 5); no large-scale "
                  "empirical claims are made", body)
