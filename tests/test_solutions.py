"""Solution layer: frozen worked examples, axioms, and cross-oracles.

The chain-uniform solver is checked against a literal chain census and
against the per-atom join formula it replaced, the dividend form of the
subset solver against the permutation form, and every solver against
linearity, efficiency, and the indicator-game formulas that
characterize them.
"""

import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, gcd, lcm
from operator import add, mul
from pathlib import Path

import pytest

import lattice_games
from lattice_games import lattice, solutions
from lattice_games.cli import _approx, _period_dividends
from lattice_games.coresep import core_feasible
from lattice_games.lattice import EmbeddedSubset, Lattice, Partition, lattice_for
from lattice_games.transform import (
    LatticeGame,
    MobiusCoefficients,
    format_fraction,
    mobius,
    zeta_expand,
    zeta_game,
)
from lattice_games.games import SymmetricGame, clustering_restrict, is_symmetric
from lattice_games.solutions import (
    SOLVERS,
    NodeShares,
    Solution,
    cu,
    cu_chain_oracle,
    egalitarian,
    graph_restrict,
    is_fixed_point,
    myerson,
    shapley_chain,
    shapley_dividends,
    split_to_nodes,
    su,
    symmetric_solution,
    transport_solution,
)

SMALL_LATTICES = [("2^N", 3), ("2^N", 4), ("P^N", 3), ("P^N", 4), ("E^N", 2), ("E^N", 3)]


def random_game(lat, rng):
    return LatticeGame(lat, {x: Fraction(rng.randint(-30, 30), rng.randint(1, 7))
                             for x in lat.elements})


def to_partition(e):
    """Image of an embedded subset in P^(n+1): insert n+1 into A, or add it
    as a singleton."""
    m = e.n + 1
    if e.subset:
        blocks = [b if b != e.subset else b + (m,) for b in e.partition.blocks]
    else:
        blocks = list(e.partition.blocks) + [(m,)]
    return Partition(m, blocks)


def transported_game(g):
    """Image of an embedded-subset game on the partition lattice above it."""
    target = lattice_for("P^N", g.lattice.n + 1)
    return LatticeGame(target, {to_partition(x): q for x, q in g.values.items()})


def expand(sol):
    """The lattice function x -> sum of shares over the atoms below x."""
    lat = sol.lattice
    return LatticeGame(lat, {
        x: sum((sol.shares[a] for a in lat.atoms_below(x)), Fraction(0))
        for x in lat.elements})


# ---------------------------------------------------------------------------
# the Solution container


def test_solution_container():
    lat = lattice_for("P^N", 3)
    sol = Solution(lat, {a: Fraction(i) for i, a in enumerate(lat.atoms)})
    assert sol.vector() == (0, 1, 2)
    assert sol.efficiency() == 3
    assert sol[lat.atoms[2]] == 2
    with pytest.raises(ValueError):
        sol[lat.top]
    payload = sol.payload()
    assert list(payload["shares"]) == ["1,2|3", "1,3|2", "1|2,3"]
    assert payload["efficiencyCheck"] == "3"
    with pytest.raises(ValueError, match="missing share"):
        Solution(lat, {lat.atoms[0]: 1})
    with pytest.raises(ValueError, match="not an atom"):
        Solution(lat, {**{a: 0 for a in lat.atoms}, lat.top: 1})


def test_solver_shares_read_back_through_the_atom_view():
    """Solvers hold shares in mask-bit order, which on E^N is not the order
    of lat.atoms; the dict view, the vector, indexing and the payload all
    name each share by its own atom.  Every solver's view is canonical, so
    it equals the view the constructor reads from the shares, on every
    lattice up to the default cap."""
    rng = random.Random(21)
    cases = ([("2^N", n) for n in range(1, 9)] + [("P^N", n) for n in range(1, 9)]
             + [("E^N", n) for n in range(1, 8)])
    for tag, n in cases:
        lat = lattice_for(tag, n)
        game = random_game(lat, rng)
        solvers = [su, cu, egalitarian]
        if tag == "2^N":
            solvers += [shapley_dividends, shapley_chain]
        for solver in solvers:
            sol = solver(game)
            view = sol.shares
            ints, d = sol._ints
            assert d > 0 and gcd(d, *ints) == 1
            assert list(view) == list(lat.atoms_below(lat.top))
            assert sol == Solution(lat, view)
            assert sol.vector() == tuple(view[a] for a in lat.atoms)
            assert all(sol[a] == view[a] for a in lat.atoms)
            assert list(sol.payload()["shares"].values()) == \
                [str(view[a]) for a in lat.atoms]


def test_solutions_equal_across_denominators():
    """A solution made from ints over an unreduced denominator reduces to
    the view the constructor reads, so == holds whatever the denominator
    it was handed; shares that differ are unequal even with equal ints,
    and so are equal ints on another owner (an E^N solution and its
    transport onto P^(n+1)) or of another type (node shares)."""
    rng = random.Random(23)
    for tag, n in SMALL_LATTICES:
        lat = lattice_for(tag, n)
        bits = lat.atoms_below(lat.top)  # mask-bit order
        for _ in range(6):
            shares = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))) for _ in bits]
            d = lcm(*(q.denominator for q in shares))
            k = rng.randint(2, 30)
            made = Solution._from_ints(lat, [q.numerator * (d // q.denominator) * k
                                             for q in shares], d * k)
            read = Solution(lat, dict(zip(bits, shares)))
            ints, e = made._ints
            assert made == read and gcd(e, *ints) == 1
            assert made.shares == read.shares == dict(zip(bits, shares))
            assert made.efficiency() == sum(shares)
            if any(ints):
                assert made != Solution._from_ints(lat, ints, 2 * e)
            if tag == "E^N":
                moved = transport_solution(made)
                assert moved._ints == made._ints and moved != made and made != moved
            nodes = NodeShares._from_ints(len(ints), ints, e)
            assert nodes._ints == made._ints and nodes != made and made != nodes


def test_matches_cross_multiplies_unlike_denominators():
    """Shares over 6 against Mobius masses over 30: the 1/5 at the bottom
    sets the mass's denominator and is ignored, so the shares 1/2, 1/3, 0
    match it; a mass with the same ints as the shares over 30 does not."""
    lat = lattice_for("P^N", 3)
    a, b, c = lat.atoms
    sol = Solution(lat, {a: Fraction(1, 2), b: Fraction(1, 3), c: 0})
    same = MobiusCoefficients(lat, {lat.bottom: Fraction(1, 5), a: Fraction(1, 2),
                                    b: Fraction(1, 3)})
    scaled_down = MobiusCoefficients(lat, {lat.bottom: "1/30", a: "1/10", b: "1/15"})
    assert sol._ints == ([3, 2, 0], 6)
    assert same._ints[1] == scaled_down._ints[1] == 30
    assert [scaled_down._ints[0][lat.index(x)] for x in (a, b, c)] == [3, 2, 0]
    assert sol.matches(same) and not sol.matches(scaled_down)
    game = zeta_expand(same)
    assert su(game) == sol and is_fixed_point(su, game)
    assert not is_fixed_point(cu, game)
    # a third of the top's dividend on each atom: shares over 18, mass over 30
    topped = zeta_expand(MobiusCoefficients(lat, {lat.bottom: Fraction(1, 5),
                                                  a: Fraction(1, 2), lat.top: Fraction(1, 3)}))
    assert su(topped)._ints == ([11, 2, 2], 18)
    assert not is_fixed_point(su, topped)
    volumes = {(1, 2): Fraction(1, 2), (1, 3): Fraction(1, 3)}
    mass = _period_dividends(lat, volumes)
    assert mass._ints[1] == 6 and su(zeta_expand(mass)).matches(mass)
    kept = _period_dividends(lat, volumes, lat.parse_element("1,2|3"))
    assert sorted(kept._ints[0]) == [0, 0, 0, 0, 1] and kept._ints[1] == 2
    assert not su(zeta_expand(mass)).matches(kept) and su(zeta_expand(kept)).matches(kept)


def test_solution_expand():
    lat = lattice_for("2^N", 3)
    sol = Solution(lat, {frozenset({1}): 2, frozenset({2}): 3, frozenset({3}): 5})
    g = expand(sol)
    assert g[frozenset()] == 0
    assert g[frozenset({1, 3})] == 7
    assert g[lat.top] == 10


# ---------------------------------------------------------------------------
# frozen worked examples


def test_pair_indicator_on_three_elements():
    """The game worth 1 once 1 and 2 cooperate: all of it goes to that
    pair under size-uniform sharing, while chain-uniform sharing leaks
    credit to the crossing merges."""
    lat = lattice_for("P^N", 3)
    z = zeta_game(lat, lat.parse_element("1,2|3"))
    assert su(z).vector() == (1, 0, 0)
    assert cu(z).vector() == (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6))


def test_pair_indicator_on_embedded_two_elements():
    lat = lattice_for("E^N", 2)
    z = zeta_game(lat, lat.parse_element(";1,2"))
    assert su(z).vector() == (0, 0, 1)
    assert cu(z).vector() == (Fraction(1, 6), Fraction(1, 6), Fraction(2, 3))


def test_transport_carries_the_pair_indicator_example():
    e2 = lattice_for("E^N", 2)
    p3 = lattice_for("P^N", 3)
    z = zeta_game(e2, e2.parse_element(";1,2"))
    assert transported_game(z) == zeta_game(p3, p3.parse_element("1,2|3"))
    for solver in (su, cu, egalitarian):
        assert transport_solution(solver(z)) == solver(transported_game(z))


def test_rank_game_gives_two_thirds_everywhere():
    for tag, n in [("P^N", 3), ("E^N", 2)]:
        lat = lattice_for(tag, n)
        g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
        for solver in (su, cu, egalitarian):
            assert solver(g).vector() == (Fraction(2, 3),) * 3


def test_size_multiple_pays_the_multiplier():
    for tag, n in SMALL_LATTICES:
        lat = lattice_for(tag, n)
        g = LatticeGame(lat, {x: 3 * lat.size(x) + 1 for x in lat.elements})
        assert cu(g).vector() == (3,) * len(lat.atoms)
        assert su(g).vector() == (3,) * len(lat.atoms)


def test_majority_game_shapley():
    lat = lattice_for("2^N", 3)
    g = LatticeGame(lat, {x: 1 if len(x) >= 2 else 0 for x in lat.elements})
    third = Fraction(1, 3)
    assert shapley_chain(g).vector() == (third, third, third)
    assert shapley_dividends(g).vector() == (third, third, third)


def test_unanimity_games_split_evenly_among_members():
    rng = random.Random(3)
    for n in (2, 3, 4):
        lat = lattice_for("2^N", n)
        members = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        z = zeta_game(lat, members)
        sol = shapley_dividends(z)
        for a in lat.atoms:
            expected = Fraction(1, len(members)) if a <= members else 0
            assert sol[a] == expected


# ---------------------------------------------------------------------------
# the two Shapley forms and their lattice generalizations


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shapley_forms_agree(n):
    rng = random.Random(40 + n)
    lat = lattice_for("2^N", n)
    for _ in range(20):
        g = random_game(lat, rng)
        a = shapley_chain(g)
        assert a == shapley_dividends(g) == su(g) == cu(g)


def test_subset_only_solvers_reject_other_lattices():
    g = LatticeGame(lattice_for("P^N", 3),
                    {x: 0 for x in lattice_for("P^N", 3).elements})
    for fn in (shapley_chain, shapley_dividends):
        with pytest.raises(ValueError, match="subset"):
            fn(g)


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_indicator_share_formula(tag, n):
    """su of the up-set indicator of y pays 1/size(y) to each atom below
    y and nothing elsewhere."""
    lat = lattice_for(tag, n)
    for y in lat.elements:
        if y == lat.bottom:
            continue
        sol = su(zeta_game(lat, y))
        s = lat.size(y)
        for a in lat.atoms:
            assert sol[a] == (Fraction(1, s) if lat.leq(a, y) else 0)


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_atom_indicator_bounds_under_cu(tag, n):
    """cu keeps shares of an atom indicator in [0, 1], strictly interior
    away from the subset lattice once a third element exists."""
    lat = lattice_for(tag, n)
    strict = tag != "2^N"
    for a in lat.atoms:
        sol = cu(zeta_game(lat, a))
        assert sol.efficiency() == 1
        assert sol[a] <= 1
        if strict:
            assert sol[a] < 1
        for b in lat.atoms:
            if b == a:
                continue
            if strict:
                assert sol[b] > 0
            else:
                assert sol[b] >= 0


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_linearity_and_efficiency(tag, n):
    rng = random.Random(60 + n + len(tag))
    lat = lattice_for(tag, n)
    solvers = [su, cu, egalitarian]
    if tag == "2^N":
        solvers += [shapley_chain, shapley_dividends]
    f = random_game(lat, rng)
    g = random_game(lat, rng)
    combo = 3 * f + Fraction(-1, 2) * g
    for solver in solvers:
        sf, sg, sc = solver(f), solver(g), solver(combo)
        for a in lat.atoms:
            assert sc[a] == 3 * sf[a] + Fraction(-1, 2) * sg[a]
        assert sf.efficiency() == f.top_value - f.bottom_value


def test_solver_of_dividend_decomposition():
    """f is the dividend-weighted sum of up-set indicators, so a linear
    solver evaluates as the same weighting of indicator solutions."""
    rng = random.Random(9)
    for tag, n in [("P^N", 3), ("E^N", 2)]:
        lat = lattice_for(tag, n)
        f = random_game(lat, rng)
        mu = mobius(f)
        rebuilt = None
        for x in lat.elements:
            piece = mu.coefficients[x] * zeta_game(lat, x)
            rebuilt = piece if rebuilt is None else rebuilt + piece
        assert rebuilt == f
        for solver in (su, cu):
            sol = solver(f)
            for a in lat.atoms:
                acc = sum((mu.coefficients[x] * solver(zeta_game(lat, x))[a]
                           for x in lat.elements if x != lat.bottom), Fraction(0))
                assert sol[a] == acc


# ---------------------------------------------------------------------------
# fixed points


def test_su_is_fixed_on_atom_supported_games():
    rng = random.Random(17)
    for tag, n in SMALL_LATTICES:
        lat = lattice_for(tag, n)
        coeffs = {a: Fraction(rng.randint(-5, 5)) for a in lat.atoms}
        coeffs[lat.bottom] = Fraction(4)
        g = zeta_expand(MobiusCoefficients(lat, coeffs))
        assert is_fixed_point(su, g)
        assert is_fixed_point("su", g)


def test_cu_is_fixed_on_size_multiples():
    for tag, n in SMALL_LATTICES:
        lat = lattice_for(tag, n)
        g = LatticeGame(lat, {x: Fraction(-5, 2) * lat.size(x) + 7
                              for x in lat.elements})
        assert is_fixed_point(cu, g)


def test_cu_is_not_fixed_on_atom_indicators_beyond_subsets():
    for tag, n in [("P^N", 3), ("P^N", 4), ("E^N", 2), ("E^N", 3)]:
        lat = lattice_for(tag, n)
        assert not is_fixed_point(cu, zeta_game(lat, lat.atoms[0]))
        assert is_fixed_point(su, zeta_game(lat, lat.atoms[0]))
    lat = lattice_for("2^N", 3)
    assert is_fixed_point(cu, zeta_game(lat, lat.atoms[0]))


def test_su_is_not_fixed_on_top_indicator():
    lat = lattice_for("P^N", 3)
    assert not is_fixed_point(su, zeta_game(lat, lat.top))


def expands_to(sol, game):
    """Oracle for the fixed point: the shares, summed over the atoms below
    each element, give the game back with its bottom shifted to zero."""
    return expand(sol) == game.normalize_bottom()[0]


def old_period_game(lat, volumes, cluster):
    """Oracle for a netshare period: the volumes expanded by zeta, then
    restricted to the cluster through the game (Mobius, drop, zeta)."""
    game = zeta_expand(MobiusCoefficients(lat, {Partition.pair(lat.n, i, j): q
                                                for (i, j), q in volumes.items()}))
    return game if cluster is None else clustering_restrict(game, cluster)


def test_matches_decides_the_fixed_point_from_the_solution():
    lat = lattice_for("P^N", 3)
    for g in (zeta_game(lat, lat.atoms[0]), zeta_game(lat, lat.top)):
        shifted = g + LatticeGame(lat, {x: Fraction(3) for x in lat.elements})
        for solver in (su, cu):
            sol = solver(shifted)
            assert sol.matches(mobius(shifted)) == is_fixed_point(solver, shifted)
            assert sol.matches(mobius(shifted)) == sol.matches(mobius(g))
    assert su(zeta_game(lat, lat.atoms[0])).matches(mobius(zeta_game(lat, lat.atoms[0])))
    assert not cu(zeta_game(lat, lat.atoms[0])).matches(mobius(zeta_game(lat, lat.atoms[0])))


@pytest.mark.parametrize("tag, n", SMALL_LATTICES)
def test_is_fixed_point_is_the_expansion_test(tag, n):
    rng = random.Random(f"fixed {tag} {n}")
    lat = lattice_for(tag, n)
    seen = set()
    for _ in range(6):
        on_atoms = MobiusCoefficients(lat, {a: Fraction(rng.randint(0, 3)) for a in lat.atoms})
        for g in (random_game(lat, rng), zeta_expand(on_atoms)):
            shift = LatticeGame(lat, dict.fromkeys(lat.elements, Fraction(rng.randint(1, 9), 2)))
            for game in (g, g + shift):
                for solver in (su, cu, egalitarian):
                    verdict = is_fixed_point(solver, game)
                    assert verdict == expands_to(solver(game), game)
                    seen.add(verdict)
    assert seen == {True, False}


def test_netshare_periods_decide_the_fixed_point_on_the_mass():
    rng = random.Random(8)
    outcomes = {name: set() for name in ("su", "cu", "egalitarian")}
    for n in range(2, 7):
        lat = lattice_for("P^N", n)
        edges = list(combinations(range(1, n + 1), 2))
        for _ in range(10):
            if rng.random() < 0.3:  # equal volumes on every edge
                volumes = dict.fromkeys(edges, Fraction(rng.randint(0, 4)))
            else:
                volumes = {e: Fraction(rng.randint(0, 9), rng.randint(1, 3))
                           for e in edges if rng.random() < 0.7}
            cluster = rng.choice([None, rng.choice(lat.elements)])
            mu = _period_dividends(lat, volumes, cluster)
            game = mu.zeta_expand()
            assert game == old_period_game(lat, volumes, cluster)
            for name, verdicts in outcomes.items():
                sol = SOLVERS[name](game)
                assert sol.matches(mu) == expands_to(sol, game)
                verdicts.add(sol.matches(mu))
    assert outcomes["su"] == {True}
    assert outcomes["cu"] == outcomes["egalitarian"] == {True, False}


def test_fixed_point_rejects_unknown_solver():
    lat = lattice_for("P^N", 3)
    g = LatticeGame(lat, {x: 0 for x in lat.elements})
    with pytest.raises(ValueError, match="unknown solver"):
        is_fixed_point("nope", g)
    assert set(SOLVERS) == {"shapley", "su", "cu", "egalitarian"}


# ---------------------------------------------------------------------------
# su against its Fraction form


def fraction_su(game):
    """su in Fraction arithmetic, one dividend share at a time: the oracle
    for the integer su."""
    lat = game.lattice
    mu = mobius(game)
    shares = {a: Fraction(0) for a in lat.atoms}
    for x in lat.elements:
        below = lat.atoms_below(x)
        for a in below:
            shares[a] += mu.coefficients[x] / len(below)
    return Solution(lat, shares)


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 8)]
                         + [("P^N", n) for n in range(1, 7)]
                         + [("E^N", n) for n in range(1, 6)])
def test_su_equals_the_fraction_form(tag, n):
    rng = random.Random(40 + 10 * n + len(tag))
    lat = lattice_for(tag, n)
    for _ in range(2):
        dense = LatticeGame(lat, {
            x: 0 if rng.random() < 0.2
            else Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 7, 9, 12, 25, 97)))
            for x in lat.elements})
        for g in (dense, dense.normalize_bottom()[0],
                  dense + Fraction(5, 7) * zeta_game(lat, lat.bottom)):
            sol = su(g)
            assert sol == fraction_su(g)
            assert all(type(q) is Fraction for q in sol.vector())


# ---------------------------------------------------------------------------
# chain census oracle and transport equivariance


@pytest.mark.parametrize("tag,n", [("P^N", 3), ("P^N", 4), ("E^N", 2), ("E^N", 3),
                                   ("2^N", 3), ("2^N", 4)])
def test_cu_matches_chain_census(tag, n):
    rng = random.Random(80 + n + len(tag))
    lat = lattice_for(tag, n)
    for _ in range(5):
        g = random_game(lat, rng)
        assert cu(g) == cu_chain_oracle(g)


@pytest.mark.parametrize("tag,n", [("2^N", 5), ("P^N", 5), ("E^N", 4)])
def test_cu_derives_the_covers_once(monkeypatch, tag, n):
    """A second cu call reads the stored Hasse table: with the order tables
    made to raise after the first call, it returns the same shares."""
    lat = lattice_for(tag, n)
    rng = random.Random(34)
    game = random_game(lat, rng)
    first = cu(game)

    def gone():
        raise AssertionError("the order tables were read again")

    for holder in {lat, lat.owner}:
        monkeypatch.setattr(holder, "_order_tables", gone)
    assert cu(LatticeGame(lat, game.values)) == first
    with pytest.raises(AssertionError, match="read again"):
        lat.downset_indices(0)


def cu_join_oracle(game):
    """Chain-uniform sharing, via the share of chains through each step.

    An atom is credited the per-size marginal of the covering step where
    it first appears under a uniformly random maximal chain.  This is the
    per-pair form: one join and one chain ratio for every atom and every
    element not above it.
    """
    lat = game.lattice
    vals = game.values
    _, below, above = lat._hasse()
    shares = {}
    for a in lat.atoms:
        acc = Fraction(0)
        for x in lat.elements:
            if lat.leq(a, x):
                continue
            y = lat.join(x, a)
            jump = lat.size(y) - lat.size(x)
            ratio = Fraction(below[lat.index(x)] * above[lat.index(y)], above[0])
            acc += ratio * (vals[y] - vals[x]) / jump
        shares[a] = acc
    return Solution(lat, shares)


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 8)]
                         + [("P^N", n) for n in range(1, 8)]
                         + [("E^N", n) for n in range(1, 7)])
def test_cu_matches_the_join_formula(tag, n):
    rng = random.Random(120 + 10 * n + len(tag))
    lat = lattice_for(tag, n)
    for _ in range(2 if len(lat) <= 300 else 1):
        g = random_game(lat, rng)
        assert cu(g) == cu_join_oracle(g)


def cu_edge_oracle(game):
    """cu as one credit per cover edge: every edge credits each atom it
    adds directly, without summing the edges that add the same atoms."""
    lat = game.lattice
    ints, scale = game._ints
    covers, below, above = lat._hasse()
    masks = lat.masks
    common = lcm(*range(1, len(lat.atoms) + 1))
    credit = [0] * len(lat.atoms)  # per mask bit
    for i, row in enumerate(covers):
        for j in row:
            group = masks[j] ^ masks[i]
            gain = below[i] * above[j] * (ints[j] - ints[i]) * (common // group.bit_count())
            for k in range(len(credit)):
                if group >> k & 1:
                    credit[k] += gain
    return Solution._from_ints(lat, credit, common * above[0] * scale)


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 9)]
                         + [("P^N", n) for n in range(1, 9)]
                         + [("E^N", n) for n in range(1, 8)])
def test_cu_equals_the_per_edge_credit_up_to_the_cap(tag, n):
    """The grouped cu against the per-edge loop on every lattice up to
    the default cap, where the chain census no longer reaches."""
    rng = random.Random(160 + 10 * n + len(tag))
    lat = lattice_for(tag, n)
    for g in (random_game(lat, rng), random_game(lat, rng).normalize_bottom()[0]):
        assert cu(g)._ints == cu_edge_oracle(g)._ints


# ---------------------------------------------------------------------------
# the credit tables against the crediting loops they replaced


def credit_groups(game, gains, weight):
    """Each int gain spread evenly over the mask bits of its group, one
    bit at a time, as ints over C * weight * d (C = lcm(1..#atoms), d the
    game's): the crediting step su and cu shared before their tables."""
    lat = game.lattice
    common = lcm(*range(1, len(lat.atoms) + 1))
    credit = [0] * len(lat.atoms)  # per mask bit
    for group, gain in gains:
        if gain:
            share = gain * (common // group.bit_count())
            while group:
                low = group & -group
                credit[low.bit_length() - 1] += share
                group ^= low
    return Solution._from_ints(lat, credit, common * weight * game._ints[1])


def su_mobius_oracle(game):
    """su as it ran before its word table: Mobius, then per mask bit the
    holders' dividends, each times C // (its element's atom count)."""
    lat = game.lattice
    common = lcm(*range(1, lat.masks[-1].bit_length() + 1))
    scales = tuple(common // m.bit_count() if m else 0 for m in lat.masks)
    weighed = list(map(mul, scales, mobius(game)._ints[0]))
    return Solution._from_ints(lat, [sum(map(weighed.__getitem__, held)) for held in lat._holders()],
                               common * game._ints[1])


def su_group_oracle(game):
    """su with each dividend credited to its element's mask, bit by bit."""
    return credit_groups(game, zip(game.lattice.masks[1:], mobius(game)._ints[0][1:]), 1)


def cu_gains_oracle(game):
    """cu with the cover-edge marginals summed per group in a dict first."""
    ints, masks = game._ints[0], game.lattice.masks
    covers, below, above = game.lattice._hasse()
    gains = {}  # per group of atoms a cover edge adds
    for i, row in enumerate(covers):
        for j in row:
            group = masks[j] ^ masks[i]
            gains[group] = gains.get(group, 0) + below[i] * above[j] * (ints[j] - ints[i])
    return credit_groups(game, gains.items(), above[0])


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 9)]
                         + [("P^N", n) for n in range(1, 9)]
                         + [("E^N", n) for n in range(1, 8)])
def test_su_and_cu_equal_the_crediting_loops_up_to_the_cap(tag, n):
    """The packed su and cu give the ints of the loops they replaced on
    random, bottom-shifted, clustered and zero-gain games: su those of
    Mobius and the holder sums."""
    rng = random.Random(200 + 10 * n + len(tag))
    lat = lattice_for(tag, n)
    dense = random_game(lat, rng)
    wide = [rng.randrange(2 ** 39, 2 ** 40) for _ in range(10)]
    games = [dense, dense.normalize_bottom()[0],
             dense + Fraction(5, 7) * zeta_game(lat, lat.bottom),
             clustering_restrict(dense, rng.choice(lat.elements)),
             clustering_restrict(dense, lat.bottom),  # every gain is zero
             zeta_game(lat, lat.top), 3 * zeta_game(lat, lat.bottom),
             # ints of several LIMB-bit limbs, entries one past a limb, and
             # denominators whose lcm runs to hundreds of bits
             2 ** (3 * solutions.LIMB) * dense + zeta_game(lat, lat.bottom),
             LatticeGame(lat, {x: rng.choice((-1, 1)) * 2 ** solutions.LIMB
                               for x in lat.elements}),
             LatticeGame(lat, {x: Fraction(rng.randint(-30, 30), rng.choice(wide))
                               for x in lat.elements})]
    assert len(lat) < 50 or games[-1]._ints[1].bit_length() > 200
    for g in games:
        assert su(g)._ints == su_mobius_oracle(g)._ints == su_group_oracle(g)._ints
        assert cu(g)._ints == cu_gains_oracle(g)._ints


def connected_graph(rng, n):
    """A random spanning tree on 1..n plus a few extra edges."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = {tuple(sorted((v, rng.choice(order[:k])))) for k, v in enumerate(order) if k}
    return sorted(edges | {e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.2})


@pytest.mark.parametrize("n", range(1, 9))
def test_myerson_equals_the_mobius_oracle_on_connected_graphs(n):
    """myerson reads su's words of 2^n: the ints of Mobius and the holder
    sums on the graph-restricted game."""
    rng = random.Random(300 + n)
    lat = lattice_for("2^N", n)
    for _ in range(3):
        g, edges = random_game(lat, rng), connected_graph(rng, n)
        assert myerson(g, edges)._ints == su_mobius_oracle(graph_restrict(g, edges))._ints


def fubini(n):
    """The ordered set partitions of n things: the sum of b! over the
    partitions of n into b blocks."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 9)]
                         + [("P^N", n) for n in range(1, 9)]
                         + [("E^N", n) for n in range(1, 8)])
def test_su_word_fields_keep_the_rota_bound(tag, n):
    """Every field of su word y is at most C times the |mu(y, z)| summed
    over z >= y: b! for y of b blocks on P^N (P^(n+1) on E^N), 2^(n - |y|)
    on 2^N.  So a field's absolute values sum to at most C * Fubini(n) or
    C * 3^n over the words, and the width holds that times a LIMB-bit int
    with a sign bit to spare."""
    lat = lattice_for(tag, n)
    owner = lat.owner
    common, bias, fields, words = solutions._su_words(lat)
    assert common == lcm(*range(1, owner.masks[-1].bit_length() + 1))
    if owner.tag == "2^N":
        mass, per_word = 3 ** n, [2 ** (n - len(x)) for x in owner.elements]
    else:
        mass, per_word = fubini(owner.n), [factorial(len(x.blocks)) for x in owner.elements]
    assert sum(per_word) == mass
    assert (common * mass) << solutions.LIMB < 1 << fields.step - 1
    mask, half = (1 << fields.step) - 1, 1 << fields.step - 1
    totals = [0] * len(fields)
    for word, most in zip(words, per_word):
        values = [((word + bias) >> k & mask) - half for k in fields]
        assert sum(values[k] << k * fields.step for k in range(len(fields))) == word
        assert max(map(abs, values), default=0) <= common * most
        totals = list(map(add, totals, map(abs, values)))
    assert max(totals, default=0) <= common * mass


@pytest.mark.parametrize("n", range(1, 8))
def test_embedded_lattices_share_the_partition_tables(n):
    """E^n reads P^(n+1)'s masks, so its incidence, Hasse table and su's
    and cu's word tables are P^(n+1)'s: one object each, in P^(n+1)'s
    store."""
    emb, part = lattice_for("E^N", n), lattice_for("P^N", n + 1)
    assert emb.owner is part and part.owner is part
    for table in (Lattice._incidence, Lattice._hasse, solutions._su_words, solutions._cu_words):
        assert table(emb) is table(part) is part._store[table.__name__]
    assert not emb._store


@pytest.mark.parametrize("n", [3, 4])
def test_tables_are_built_by_their_readers_alone(monkeypatch, n):
    """On an uncached P^n, cu builds the incidence, the Hasse table and its
    words, and no down-set; su builds the incidence, the down-sets and its
    words, and no getter or holder tuple.  su, cu, mobius and
    core_feasible on E^n fill P^(n+1)'s store alone."""
    kinds = {t: type(lattice_for(t, 1)) for t in ("P^N", "E^N")}
    monkeypatch.setattr(lattice, "_build", lambda t, m: kinds[t](m))  # uncached lattices
    rng = random.Random(n)
    part = kinds["P^N"](n)
    cu(random_game(part, rng))
    assert set(part._store) == {"_incidence", "_hasse", "_cu_words"}
    part = kinds["P^N"](n)
    su(random_game(part, rng))
    assert set(part._store) == {"_incidence", "_order_tables", "_su_words"}
    emb = kinds["E^N"](n)
    game = random_game(emb, rng)
    for step in (su, cu, mobius, core_feasible):
        step(game)
    assert not emb._store
    assert set(emb.owner._store) == {"_incidence", "_order_tables", "_getters", "_hasse",
                                     "_holders", "_su_words", "_cu_words"}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_corrupted_credit_tables_fail_the_efficiency_check(flags):
    """su's or cu's word table with its words doubled makes su and cu
    raise, also under python -O: the efficiency check is an explicit
    raise."""
    script = textwrap.dedent("""
        import sys
        from lattice_games import solutions
        from lattice_games.lattice import lattice_for
        from lattice_games.transform import LatticeGame

        print("optimize", sys.flags.optimize)
        lat = lattice_for("E^N", 3)
        game = LatticeGame(lat, {x: lat.size(x) ** 2 for x in lat.elements})
        store = lat.owner._store
        for name in ("_su_words", "_cu_words"):
            *head, words = getattr(solutions, name)(lat)
            store[name] = (*head, tuple(2 * w for w in words))
        for solver in (solutions.su, solutions.cu):
            try:
                solver(game)
                print(solver.__name__, "returned")
            except Exception as err:
                print(solver.__name__, type(err).__name__, err)
    """)
    package_root = Path(lattice_games.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        f"optimize {len(flags)}",
        "su VerificationError su shares on E^N with n=3 do not sum to f(top) - f(bottom)",
        "cu VerificationError cu shares on E^N with n=3 do not sum to f(top) - f(bottom)",
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_solvers_commute_with_transport(n):
    rng = random.Random(90 + n)
    lat = lattice_for("E^N", n)
    for _ in range(10):
        g = random_game(lat, rng)
        image = transported_game(g)
        for solver in (su, cu, egalitarian):
            assert transport_solution(solver(g)) == solver(image)


def relabelled(x, perm):
    """The partition or embedded subset x with every node i renamed perm[i]."""
    if isinstance(x, EmbeddedSubset):
        return EmbeddedSubset([perm[i] for i in x.subset], relabelled(x.partition, perm))
    return Partition(x.n, [[perm[i] for i in block] for block in x.blocks])


@pytest.mark.parametrize("tag,n", [("P^N", n) for n in range(1, 7)]
                         + [("E^N", n) for n in range(1, 6)])
def test_su_and_cu_commute_with_every_node_permutation(tag, n):
    """Renaming the nodes by any permutation renames su's and cu's shares
    the same way: the game moved to the renamed elements pays each renamed
    atom what the seeded game pays the atom."""
    lat = lattice_for(tag, n)
    game = random_game(lat, random.Random(f"{tag}{n}"))
    values = game.vector()
    want = {solver: solver(game).shares for solver in (su, cu)}
    for order in permutations(range(1, n + 1)):
        perm = dict(zip(range(1, n + 1), order))
        image = LatticeGame(lat, {relabelled(x, perm): q for x, q in zip(lat.elements, values)})
        for solver, shares in want.items():
            got = solver(image)
            assert all(got[relabelled(a, perm)] == q for a, q in shares.items()), (solver, order)


@pytest.mark.parametrize("n,alpha,beta,gamma", [
    (5, Fraction(2, 5), Fraction(29, 360), Fraction(7, 180)),
    (6, Fraction(1, 3), Fraction(37, 600), Fraction(13, 450)),
    (7, Fraction(2, 7), Fraction(103, 2100), Fraction(47, 2100)),
    (8, Fraction(1, 4), Fraction(59, 1470), Fraction(263, 14700)),
])
def test_cu_of_a_pair_game_pays_the_pair_its_neighbours_and_the_rest(n, alpha, beta, gamma):
    """cu of the unit game of pair (1,2) on P^n: alpha to the atom (1,2),
    beta to each atom that shares a node with it and gamma to each atom
    disjoint from it.  cu is linear and commutes with node renaming, so
    these three rationals per n give cu of any game whose Mobius mass
    sits on the pair atoms."""
    lat = lattice_for("P^N", n)
    sol = cu(zeta_game(lat, Partition.pair(n, 1, 2)))
    for i, j in combinations(range(1, n + 1), 2):
        shared = len({i, j} & {1, 2})
        assert sol[Partition.pair(n, i, j)] == (gamma, beta, alpha)[shared], (i, j)


def test_transport_solution_round_trip_and_errors():
    lat = lattice_for("E^N", 2)
    sol = su(zeta_game(lat, lat.top))
    back = transport_solution(transport_solution(sol))
    assert back == sol
    subset_sol = shapley_dividends(
        LatticeGame(lattice_for("2^N", 2),
                    {x: len(x) for x in lattice_for("2^N", 2).elements}))
    with pytest.raises(ValueError, match="transport"):
        transport_solution(subset_sol)


# ---------------------------------------------------------------------------
# symmetric games


def test_symmetric_games_make_all_solvers_agree():
    rng = random.Random(31)
    for tag, n in SMALL_LATTICES:
        lat = lattice_for(tag, n)
        classes = {lat.class_of(x) for x in lat.elements}
        table = {cls: Fraction(rng.randint(-9, 9), 3) for cls in classes}
        g = LatticeGame(lat, {x: table[lat.class_of(x)] for x in lat.elements})
        uniform = symmetric_solution(g)
        assert uniform == su(g) == cu(g) == egalitarian(g)
        share = (g.top_value - g.bottom_value) / len(lat.atoms)
        assert uniform.vector() == (share,) * len(lat.atoms)


def test_uniform_solvers_on_a_lattice_without_atoms():
    lat = lattice_for("P^N", 1)
    game = LatticeGame(lat, {lat.top: 5})
    for sol in (egalitarian(game), symmetric_solution(game),
                symmetric_solution(SymmetricGame("P^N", 1, {(1,): 5}))):
        assert sol == Solution(lat, {})
        assert sol.efficiency() == 0


def test_symmetric_solution_accepts_class_tables():
    sym = SymmetricGame("P^N", 3, {(3, 0, 0): 0, (1, 1, 0): 1, (0, 0, 1): 2})
    assert symmetric_solution(sym) == symmetric_solution(sym.expand())


def test_symmetric_solution_rejects_asymmetric_games():
    lat = lattice_for("P^N", 3)
    with pytest.raises(ValueError, match="class"):
        symmetric_solution(zeta_game(lat, lat.parse_element("1,2|3")))


# ---------------------------------------------------------------------------
# node splitting


def test_split_to_nodes_even():
    lat = lattice_for("P^N", 3)
    sol = Solution(lat, dict(zip(lat.atoms, (4, 1, 0))))
    nodes = split_to_nodes(sol)
    assert nodes.vector() == (Fraction(5, 2), 2, Fraction(1, 2))
    assert nodes.total() == sol.efficiency() == 5
    sol2 = Solution(lat, dict(zip(lat.atoms,
                                  (Fraction(2, 3), Fraction(1, 6), Fraction(1, 6)))))
    assert split_to_nodes(sol2).vector() == \
        (Fraction(5, 12), Fraction(5, 12), Fraction(1, 6))


def split_oracle(sol, weights):
    """Node totals with each edge read off its atom's one pair block."""
    totals = dict.fromkeys(range(1, sol.lattice.n + 1), Fraction(0))
    for a, q in sol.shares.items():
        i, j = next(b for b in a.blocks if len(b) == 2)
        wi, wj = weights.get((i, j), (Fraction(1, 2), Fraction(1, 2)))
        totals[i] += wi * q
        totals[j] += wj * q
    return NodeShares(sol.lattice.n, totals)


def test_split_to_nodes_weighted():
    lat = lattice_for("P^N", 3)
    sol = Solution(lat, dict(zip(lat.atoms, (4, 1, 0))))
    nodes = split_to_nodes(sol, {(1, 2): ("3/4", "1/4"), (2, 3): (1, 0)})
    assert nodes.vector() == (Fraction(7, 2), 1, Fraction(1, 2))
    assert nodes.total() == 5
    rng = random.Random(13)
    for n in range(2, 8):
        lat = lattice_for("P^N", n)
        for _ in range(5):
            sol = Solution(lat, {a: Fraction(rng.randint(-20, 20), rng.randint(1, 6))
                                 for a in lat.atoms})
            weights = {}
            for edge in combinations(range(1, n + 1), 2):
                if rng.random() < 0.5:
                    wi = Fraction(rng.randint(0, 6), 6)
                    weights[edge] = (wi, 1 - wi)
            for table in (weights, {}):
                got, want = split_to_nodes(sol, table), split_oracle(sol, table)
                assert got == want and got.vector() == want.vector()
                assert got.payload()["shares"] == {str(i): format_fraction(q)
                                                   for i, q in want.shares.items()}


def test_split_to_nodes_validation():
    lat = lattice_for("P^N", 3)
    sol = Solution(lat, {a: 1 for a in lat.atoms})
    with pytest.raises(ValueError, match="edge 1,2 sum to 5/6, not 1"):
        split_to_nodes(sol, {(1, 2): ("1/2", "1/3")})
    with pytest.raises(ValueError, match="edge"):
        split_to_nodes(sol, {(2, 1): (1, 0)})
    with pytest.raises(ValueError, match="edge"):
        split_to_nodes(sol, {(1, 9): (1, 0)})
    subset_sol = Solution(lattice_for("2^N", 2),
                          {a: 0 for a in lattice_for("2^N", 2).atoms})
    with pytest.raises(ValueError, match="P\\^N"):
        split_to_nodes(subset_sol)


def test_node_shares_payload():
    nodes = NodeShares(3, {1: Fraction(5, 2), 2: 2, 3: Fraction(1, 2)})
    assert nodes.payload() == {"n": 3, "shares": {"1": "5/2", "2": "2", "3": "1/2"}}
    assert NodeShares(2, {}).vector() == (0, 0)
    assert NodeShares(2, {1: "2/4", 2: 3}) == NodeShares(2, {1: Fraction(1, 2), 2: "6/2"})
    assert NodeShares(2, {1: "2/4"}) != NodeShares(2, {1: "1/4"})
    assert NodeShares(2, {1: "2/4"}) != NodeShares(3, {1: "2/4"})
    assert NodeShares(2, {1: "2/4", 2: -1}).shares == {1: Fraction(1, 2), 2: -1}
    assert NodeShares(2, {1: "2/4", 2: -1}).total() == Fraction(-1, 2)
    for stray in (4, 0, "1", True, None):
        with pytest.raises(ValueError, match=f"node {stray!r} is outside 1..3"):
            NodeShares(3, {stray: 5, 1: 1})


# ---------------------------------------------------------------------------
# communication graphs


def components_oracle(game, adj_edges):
    """Independent restriction: each coalition earns the sum of v over
    the connected components of its induced subgraph."""
    lat = game.lattice
    n = lat.n
    neighbors = {i: set() for i in range(1, n + 1)}
    for i, j in adj_edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    values = {}
    for coalition in lat.elements:
        remaining = set(coalition)
        acc = game.values[frozenset()]
        while remaining:
            comp = set()
            stack = [remaining.pop()]
            while stack:
                v = stack.pop()
                comp.add(v)
                stack.extend((neighbors[v] & remaining) - comp)
            remaining -= comp
            acc += game.values[frozenset(comp)] - game.values[frozenset()]
        values[coalition] = acc
    return LatticeGame(lat, values)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_graph_restriction_matches_component_sums(n):
    rng = random.Random(70 + n)
    lat = lattice_for("2^N", n)
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for _ in range(10):
        g = random_game(lat, rng)
        g = g - LatticeGame(lat, {x: g.values[frozenset()] for x in lat.elements})
        edges = [e for e in pairs if rng.random() < 0.5]
        assert graph_restrict(g, edges) == components_oracle(g, edges)


def component_walk_oracle(game, edges):
    """The restriction walked component by component: each coalition
    earns v(empty) plus v(C) - v(empty) for every component C it splits
    into, each grown from its lowest node over a bitmask frontier."""
    lat = game.lattice
    near = solutions._neighbours(lat.n, edges)
    vals, d = game._ints
    empty = vals[0]
    restricted = []
    for rest in lat.masks:
        acc = empty
        while rest:
            comp = frontier = rest & -rest
            while frontier:
                low = frontier & -frontier
                grown = near[low.bit_length() - 1] & rest & ~comp
                comp |= grown
                frontier = (frontier ^ low) | grown
            acc += vals[lat.mask_index(comp)] - empty
            rest &= ~comp
        restricted.append(acc)
    return LatticeGame._from_ints(lat, restricted, d)


@pytest.mark.parametrize("n", range(1, 9))
def test_graph_restriction_equals_the_component_walk(n):
    """One component per coalition, the rest read off S - C, gives what
    walking every component gives, on seeded graphs of every density."""
    rng = random.Random(110 + n)
    lat = lattice_for("2^N", n)
    pairs = list(combinations(range(1, n + 1), 2))
    for p in (0, 0.2, 0.5, 0.8, 1):
        g = random_game(lat, rng)
        edges = [e if rng.random() < 0.5 else e[::-1] for e in pairs if rng.random() < p]
        restricted = graph_restrict(g, edges)
        assert restricted._ints == component_walk_oracle(g, edges)._ints


def dividend_graph_restrict(game, edges):
    """The restriction by dividend recursion: connected coalitions keep v,
    disconnected ones get a zero dividend and the sum of those below."""
    lat = game.lattice
    adj = {i: set() for i in range(1, lat.n + 1)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)

    def connected(coalition):
        if len(coalition) <= 1:
            return True
        seen, stack = set(), [min(coalition)]
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v] & coalition - seen)
        return seen == coalition

    dividends = []
    values = {}
    for i, coalition in enumerate(lat.elements):  # down-sets come first
        below = sum((dividends[j] for j in lat.downset_indices(i) if j != i), Fraction(0))
        if connected(coalition):
            values[coalition] = game.values[coalition]
            dividends.append(values[coalition] - below)
        else:
            dividends.append(Fraction(0))
            values[coalition] = below
    return LatticeGame(lat, values)


def graph_family(n, rng):
    """Empty, path, star, complete and two random graphs on 1..n."""
    pairs = list(combinations(range(1, n + 1), 2))
    yield []
    yield [(i, i + 1) for i in range(1, n)]
    yield [(1, j) for j in range(2, n + 1)]
    yield pairs
    for p in (0.3, 0.6):
        yield [e if rng.random() < 0.5 else e[::-1] for e in pairs if rng.random() < p]


@pytest.mark.parametrize("n", range(1, 8))
def test_graph_restriction_equals_both_oracles(n):
    """Component sums, the dividend recursion and graph_restrict agree,
    also when v(empty) is not zero."""
    rng = random.Random(90 + n)
    lat = lattice_for("2^N", n)
    for edges in graph_family(n, rng):
        g = random_game(lat, rng)
        if g[frozenset()] == 0:
            g = g + zeta_game(lat, lat.bottom)
        restricted = graph_restrict(g, edges)
        assert restricted == components_oracle(g, edges) == dividend_graph_restrict(g, edges)
        assert all(type(q) is Fraction for q in restricted.vector())


def test_myerson_on_a_path():
    """Ends of a path earn through the middleman: restricting the game
    worth 1 to coalitions containing both ends forces the full path."""
    lat = lattice_for("2^N", 3)
    g = zeta_game(lat, frozenset({1, 3}))
    sol = myerson(g, [(1, 2), (2, 3)])
    third = Fraction(1, 3)
    assert sol.vector() == (third, third, third)


def test_myerson_with_isolated_node():
    lat = lattice_for("2^N", 3)
    g = zeta_game(lat, lat.top)
    sol = myerson(g, [(1, 2)])
    assert sol.vector() == (0, 0, 0)


def test_myerson_on_complete_graph_is_shapley():
    rng = random.Random(77)
    lat = lattice_for("2^N", 4)
    pairs = [(i, j) for i in range(1, 5) for j in range(i + 1, 5)]
    for _ in range(5):
        g = random_game(lat, rng)
        g = g - LatticeGame(lat, {x: g.values[frozenset()] for x in lat.elements})
        assert myerson(g, pairs) == shapley_dividends(g)


def test_graph_restriction_rejects_bad_edges():
    lat = lattice_for("2^N", 3)
    g = LatticeGame(lat, {x: 0 for x in lat.elements})
    for bad in [[(1, 1)], [(0, 2)], [(1, 4)], [(1, 2, 3)], [("a", "b")],
                [(2, True)], [(False, 1)], [1, 2], [{1, 2}], ["12"]]:
        with pytest.raises(ValueError, match="edge"):
            graph_restrict(g, bad)



@pytest.mark.parametrize("tag,n", SMALL_LATTICES + [("2^N", 1), ("P^N", 1), ("E^N", 1)])
def test_payload_equals_the_fraction_rendering(tag, n):
    """Shares print off the integer view, keyed by the atom keys in atoms
    order, as format_fraction prints each share and the total; the CSV
    ratios of the shares, the total and the node shares are the rationals
    printed, and their approx cells read as the floats of those texts."""
    lat = lattice_for(tag, n)
    assert [key for key, _ in lat.atom_key_bits()] == [lat.key(a) for a in lat.atoms]
    assert [1 << k for _, k in lat.atom_key_bits()] == [lat.masks[lat.index(a)]
                                                        for a in lat.atoms]
    rng = random.Random(13 * n + len(tag))
    game = random_game(lat, rng)
    for solver in (su, cu, egalitarian):
        sol = solver(game)
        payload = sol.payload()
        assert payload["shares"] == {lat.key(a): format_fraction(q)
                                     for a, q in zip(lat.atoms, sol.vector())}
        assert list(payload["shares"]) == [lat.key(a) for a in lat.atoms]
        assert payload["efficiencyCheck"] == format_fraction(sol.efficiency())
        views = [(sol._rendered()[0], sol.vector()), (sol._rendered()[1], (sol.efficiency(),))]
        if tag == "P^N":
            nodes = split_to_nodes(sol)
            views.append((nodes._rendered(), nodes.vector()))
        for (texts, ratios), want in views:
            assert list(texts.values()) == list(map(str, want))
            assert [Fraction(p, d) for p, d in ratios] == list(want)
            assert [_approx(p, d) for p, d in ratios] == [repr(float(q)) for q in want]
