"""Core feasibility with proof objects, and separability recoveries."""

import ast
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest

import lattice_games
from lattice_games import coresep
from lattice_games.lattice import EmbeddedSubset, SizeLimitError, lattice_for
from lattice_games.transform import (
    LatticeGame,
    MobiusCoefficients,
    parse_fraction,
    zeta_expand,
    zeta_game,
)
from lattice_games.games import (
    additive_global,
    additive_pff,
    is_supermodular,
    is_totally_positive,
)
from lattice_games.solutions import Solution, shapley_dividends, su
from lattice_games.coresep import (
    CoreSystem,
    _phase1,
    core_contains,
    core_feasible,
    separability_test,
)


def subset_game(n, fn):
    lat = lattice_for("2^N", n)
    return LatticeGame(lat, {x: fn(x) for x in lat.elements})


def rank_game(lat):
    return LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})


def size_game(lat):
    return LatticeGame(lat, {x: lat.size(x) for x in lat.elements})


def verify_certificate(game, certificate):
    """Independent Farkas check: nonnegative weights on the lower bounds
    plus a free weight on the efficiency row cancel all shares but keep a
    positive total."""
    multipliers, lam = certificate
    lat = game.lattice
    assert all(q >= 0 for q in multipliers.values())
    for a in lat.atoms:
        acc = lam
        for x, q in multipliers.items():
            if lat.leq(a, x):
                acc += q
        assert acc == 0
    total = lam * game.top_value
    for x, q in multipliers.items():
        total += q * game.values[x]
    assert total > 0


# ---------------------------------------------------------------------------
# reference oracle: the dense Fraction tableau the integer one replaced


def fraction_phase1(masks, cols, rhs):
    """Decide {x : Ax >= b, cx = d} by minimizing artificial slack.

    Takes what _phase1 takes, expanded to dense Fraction rows: row k has
    coefficient 1 on x_j when masks[k] holds the bit cols[j], the last
    row is the equality c with right-hand side d, and rhs holds b then
    d.  Returns ("feasible", point) or ("infeasible", (y, lam)) where
    y >= 0 pairs with the inequalities, lam with the equality, and
    sum y_i a_i + lam c = 0 while sum y_i b_i + lam d > 0.
    """
    nvars = len(cols)
    n_ineq = len(masks) - 1
    ncols = 2 * nvars + n_ineq  # x = u - w, one surplus per inequality
    rows = []
    rhs, given = [], rhs
    sigma = []
    for k, (mask, b) in enumerate(zip(masks, given)):
        row = [Fraction(0)] * ncols
        for j, c in enumerate(cols):
            if mask & c:
                row[j] = Fraction(1)
                row[nvars + j] = Fraction(-1)
        if k < n_ineq:
            row[2 * nvars + k] = Fraction(-1)
        b = Fraction(b)
        if b < 0:
            row = [-c for c in row]
            b = -b
            sigma.append(-1)
        else:
            sigma.append(1)
        rows.append(row)
        rhs.append(b)
    m = len(rows)
    for i, row in enumerate(rows):  # artificial identity
        row.extend(Fraction(1 if k == i else 0) for k in range(m))
    total = ncols + m
    basis = [ncols + i for i in range(m)]
    # reduced costs for min sum(artificials) with the artificial basis
    red = [-sum(rows[i][j] for i in range(m)) for j in range(ncols)]
    red += [Fraction(0)] * m

    while True:
        enter = next((j for j in range(total) if red[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            if rows[i][enter] > 0:
                ratio = rhs[i] / rows[i][enter]
                if best is None or ratio < best or \
                        (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        assert leave is not None, "phase-1 objective is bounded below by zero"
        piv = rows[leave][enter]
        rows[leave] = [c / piv for c in rows[leave]]
        rhs[leave] /= piv
        for i in range(m):
            if i != leave and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [c - f * d for c, d in zip(rows[i], rows[leave])]
                rhs[i] -= f * rhs[leave]
        if red[enter] != 0:
            f = red[enter]
            red = [c - f * d for c, d in zip(red, rows[leave])]
        basis[leave] = enter

    slack = sum(rhs[i] for i in range(m) if basis[i] >= ncols)
    if slack == 0:
        x = [Fraction(0)] * ncols
        for i, bv in enumerate(basis):
            if bv < ncols:
                x[bv] = rhs[i]
        point = [x[j] - x[nvars + j] for j in range(nvars)]
        return "feasible", point
    # optimal duals of the phase-1 problem, read off the artificial columns
    y = [Fraction(1) - red[ncols + i] for i in range(m)]
    multipliers = [sigma[i] * y[i] for i in range(n_ineq)]
    lam = sigma[n_ineq] * y[n_ineq]
    return "infeasible", (multipliers, lam)


def assert_same_phase1(masks, cols, rhs):
    """_phase1's proof, ints over det > 0, read as Fractions is the
    oracle's; returns the status."""
    status, proof, det = _phase1(masks, cols, rhs)
    assert isinstance(det, int) and det > 0
    if status == "feasible":
        assert all(isinstance(q, int) for q in proof)
        got = [Fraction(q, det) for q in proof]
    else:
        y, lam = proof
        assert all(isinstance(q, int) for q in (*y, lam))
        got = [Fraction(q, det) for q in y], Fraction(lam, det)
    assert (status, got) == fraction_phase1(masks, cols, rhs)
    return status


def core_lp(game):
    """The system core_feasible hands _phase1: every element's mask, then
    the top's again for the equality, over the game's integer view."""
    system = CoreSystem(game)
    masks, ints = system.lattice.masks, system.ints
    return [*masks, masks[-1]], system.cols, [*ints, ints[-1]]


# ---------------------------------------------------------------------------
# constraint systems


def test_core_system_shapes():
    for tag, n, rows in [("P^N", 3, 5), ("2^N", 3, 8), ("E^N", 2, 5)]:
        lat = lattice_for(tag, n)
        system = CoreSystem(LatticeGame(lat, {x: 0 for x in lat.elements}))
        assert len(system.ints) == rows
        assert len(system.cols) == 3
        assert system.d == 1


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 6)]
                         + [("P^N", n) for n in range(1, 6)]
                         + [("E^N", n) for n in range(1, 5)])
def test_core_rows_are_the_atoms_below_each_element(tag, n):
    """Rows read off the masks and columns equal the leq rows, with
    columns in lattice.atoms order (on E^N the node atoms come first,
    which is not the mask-bit order), and the bounds are the values."""
    rng = random.Random(41 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    game = LatticeGame(lat, {x: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                             for x in lat.elements})
    masks, cols, rhs = core_lp(game)
    d = CoreSystem(game).d
    assert len(cols) == len(lat.atoms)
    assert len(masks) == len(rhs) == len(lat) + 1
    for x, mask, b in zip([*lat.elements, lat.top], masks, rhs):
        assert [1 if mask & c else 0 for c in cols] == [1 if lat.leq(a, x) else 0
                                                        for a in lat.atoms]
        assert Fraction(b, d) == game[x]


def dense_check(game, point):
    """CoreSystem.check through dense leq rows, with the shares in
    lattice.atoms order: the oracle for the mask sums."""
    lat = game.lattice
    violated = [x for x in lat.elements
                if sum(q for a, q in zip(lat.atoms, point) if lat.leq(a, x)) < game[x]]
    if sum(point) != game.top_value and lat.top not in violated:
        violated.append(lat.top)
    return violated


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 5)]
                         + [("P^N", n) for n in range(1, 6)]
                         + [("E^N", n) for n in range(1, 5)])
def test_check_sums_the_shares_on_each_mask(tag, n):
    """check reads shares as ints over their denominator, in mask-bit
    order, and lists what the dense rows list, the top equality alone
    included."""
    rng = random.Random(43 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    # nonnegative mass off the bottom: su is a core point
    game = zeta_expand(MobiusCoefficients(lat, {x: rng.randint(0, 4)
                                                for x in lat.elements[1:]}))
    inside = su(game)
    assert CoreSystem(game).check(*inside._ints) == dense_check(game, inside.vector()) == []
    # the same shares overpay a top lowered by one: only the equality breaks
    lowered = game - zeta_game(lat, lat.top)
    assert (CoreSystem(lowered).check(*inside._ints)
            == dense_check(lowered, inside.vector()) == [lat.top])
    mixed = LatticeGame(lat, {x: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                              for x in lat.elements})
    for game in (game, lowered, mixed):
        system = CoreSystem(game)
        for _ in range(8):
            point = [Fraction(rng.randint(-6, 9), rng.randint(1, 2)) for _ in lat.atoms]
            sol = Solution(lat, dict(zip(lat.atoms, point)))
            assert system.check(*sol._ints) == dense_check(game, point)


def scaled_oracle(vector):
    """The lcm-of-denominators scaling of Fractions, spelt out."""
    d = 1
    for q in vector:
        d = d * q.denominator // gcd(d, q.denominator)
    return [q.numerator * (d // q.denominator) for q in vector], d


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 8)]
                         + [("P^N", n) for n in range(1, 7)]
                         + [("E^N", n) for n in range(1, 6)])
def test_core_bounds_equal_the_fraction_oracle(tag, n):
    """The core LP's ints and d, read off the int-only game normalize_bottom
    derives, are those of the shift done in Fractions, up to |L| = 203:
    the simplex gets the same inputs and makes the same pivots."""
    rng = random.Random(47 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    for k in range(3):
        dens = ((1,), (2, 4, 6), (1, 2, 3, 5, 12))[k]
        vector = [Fraction(2 * rng.randint(-30, 30), rng.choice(dens)) for _ in lat.elements]
        game = LatticeGame(lat, {x: f"{q.numerator * 3}/{q.denominator * 3}"
                                 for x, q in zip(lat.elements, vector)})
        shifted = game.normalize_bottom()[0]
        system = CoreSystem(shifted)
        assert (shifted is game) == (vector[0] == 0)  # a zero bottom keeps the game
        assert shifted._vector is None  # and a parsed one holds only its ints
        ints, d = scaled_oracle([q - vector[0] for q in vector])
        assert (system.ints, system.d) == (ints, d)
        assert gcd(d, *ints) == 1


# ---------------------------------------------------------------------------
# feasibility with proof objects


def test_unit_atoms_flat_top_has_empty_core():
    """Three atoms worth 1 each but a top worth only 2: the atom rows
    already demand 3, so no efficient shares exist."""
    lat = lattice_for("P^N", 3)
    report = core_feasible(rank_game(lat))
    assert not report
    assert report.status == "empty"
    assert report.witness is None
    verify_certificate(rank_game(lat), report.certificate)
    payload = report.payload()
    assert payload["status"] == "empty"
    assert "certificate" in payload


def test_size_game_core_witness():
    for tag, n in [("P^N", 3), ("P^N", 4), ("E^N", 2)]:
        lat = lattice_for(tag, n)
        report = core_feasible(size_game(lat))
        assert report
        assert report.status == "nonempty"
        assert core_contains(size_game(lat), report.witness)
        assert report.payload()["status"] == "nonempty"
    ones = Solution(lattice_for("P^N", 3),
                    {a: 1 for a in lattice_for("P^N", 3).atoms})
    assert core_contains(size_game(lattice_for("P^N", 3)), ones)


def test_majority_game_core_is_empty():
    g = subset_game(3, lambda a: 1 if len(a) >= 2 else 0)
    report = core_feasible(g)
    assert not report
    verify_certificate(g, report.certificate)


def test_top_indicator_core_is_nonempty():
    for tag, n in [("P^N", 3), ("2^N", 3), ("E^N", 2)]:
        lat = lattice_for(tag, n)
        report = core_feasible(zeta_game(lat, lat.top))
        assert report
        assert core_contains(zeta_game(lat, lat.top), report.witness)


def test_positive_bottom_forces_empty_core():
    lat = lattice_for("P^N", 3)
    g = LatticeGame(lat, {x: 1 for x in lat.elements})
    report = core_feasible(g)
    assert not report
    verify_certificate(g, report.certificate)


def test_supermodular_subset_games_contain_shapley():
    rng = random.Random(19)
    for n in (2, 3, 4, 5):
        lat = lattice_for("2^N", n)
        for _ in range(6):
            coeffs = {x: Fraction(rng.randint(0, 8))
                      for x in lat.elements if len(x) >= 2}
            for i in range(1, n + 1):
                coeffs[frozenset((i,))] = Fraction(rng.randint(-6, 6))
            g = MobiusCoefficients(lat, coeffs).zeta_expand()
            assert is_supermodular(g)
            report = core_feasible(g)
            assert report
            assert core_contains(g, report.witness)
            assert core_contains(g, shapley_dividends(g))


def test_supermodularity_does_not_save_the_partition_core():
    """The regression anchor: supermodular on P^3 yet empty."""
    g = rank_game(lattice_for("P^N", 3))
    assert is_supermodular(g)
    assert not is_totally_positive(g)
    assert not core_feasible(g)


def test_core_contains_lists_violations():
    lat = lattice_for("P^N", 3)
    g = size_game(lat)
    shares = Solution(lat, dict(zip(lat.atoms, (0, 0, 3))))
    report = core_contains(g, shares)
    assert not report
    assert report.witness == [lat.parse_element("1,3|2"), lat.parse_element("1,2|3")]
    report2 = core_contains(g, dict(zip(lat.atoms, (1, 1, 2))))
    assert not report2
    assert report2.witness == [lat.top]  # over-efficient: equality broken
    with pytest.raises(ValueError, match="lattice"):
        core_contains(g, su(zeta_game(lattice_for("P^N", 4),
                                      lattice_for("P^N", 4).top)))


def test_core_contains_reads_shares_over_their_own_denominator():
    """Shares whose denominator is unlike the game's: halves in the game,
    thirds, fifths, sixths and sevenths in the shares.  The verdict and
    the violated elements are those of the dense Fraction rows."""
    lat = lattice_for("P^N", 3)
    half = size_game(lat) * Fraction(1, 2)  # atoms 1/2, top 3/2
    wide = half + zeta_game(lat, lat.top)   # atoms 1/2, top 5/2
    assert CoreSystem(half).d == CoreSystem(wide).d == 2
    inside = Solution(lat, dict(zip(lat.atoms, ("4/5", "4/5", "9/10"))))
    short = Solution(lat, dict(zip(lat.atoms, ("2/3", "1/2", "1/3"))))
    thirds = Solution(lat, dict.fromkeys(lat.atoms, "2/3"))
    assert (inside._ints[1], short._ints[1], thirds._ints[1]) == (10, 6, 3)
    assert core_contains(wide, inside) and not core_contains(half, inside)
    report = core_contains(half, short)
    assert not report and report.witness == dense_check(half, short.vector())
    assert core_contains(half, thirds).witness == [lat.top]  # 2 > 3/2
    assert core_contains(wide, thirds).witness == [lat.top]  # 2 < 5/2
    rng = random.Random(53)
    for tag, n in [("2^N", 3), ("P^N", 4), ("E^N", 3)]:
        lat = lattice_for(tag, n)
        for _ in range(12):
            game = LatticeGame(lat, {x: Fraction(rng.randint(-4, 8), rng.choice((2, 4)))
                                     for x in lat.elements})
            point = [Fraction(rng.randint(-4, 12), rng.choice((3, 5, 7))) for _ in lat.atoms]
            report = core_contains(game, dict(zip(lat.atoms, point)))
            violated = dense_check(game, point)
            assert report.holds == (not violated) and report.witness == (violated or None)
        # su shares of a nonnegative mass lie in the core, over their own d
        game = zeta_expand(MobiusCoefficients(lat, {x: Fraction(rng.randint(0, 4), 3)
                                                    for x in lat.elements[1:]})) * Fraction(1, 5)
        assert core_contains(game, su(game))


# ---------------------------------------------------------------------------
# the integer tableau against the Fraction oracle


def random_system(rng, nvars, n_ineq, density, draw_rhs):
    """Masks over nvars columns, each a distinct bit in shuffled order,
    plus one more mask for the equality; a bit is set with probability
    density."""
    cols = [1 << k for k in rng.sample(range(nvars), nvars)]

    def mask():
        return sum(c for c in cols if rng.random() < density)
    return ([mask() for _ in range(n_ineq + 1)], cols,
            [draw_rhs() for _ in range(n_ineq + 1)])


def test_integer_tableau_matches_the_oracle_on_random_systems():
    """Masks with right-hand sides of both signs, so rows are flipped
    (sigma = -1)."""
    rng = random.Random(71)
    statuses = set()
    for _ in range(200):
        system = random_system(rng, rng.randint(1, 4), rng.randint(1, 8), 0.5,
                               lambda: rng.randint(-12, 12))
        statuses.add(assert_same_phase1(*system))
    assert statuses == {"feasible", "infeasible"}


def test_integer_tableau_breaks_ratio_ties_like_the_oracle():
    """Dense masks with right-hand sides in {0, 1, 2}: degenerate vertices,
    where several rows tie in the ratio test and Bland's rule picks the
    one whose basic variable has the smallest index."""
    rng = random.Random(73)
    statuses = set()
    for _ in range(200):
        system = random_system(rng, rng.randint(2, 5), rng.randint(3, 10), 2 / 3,
                               lambda: rng.choice((0, 1, 1, 2)))
        statuses.add(assert_same_phase1(*system))
    assert statuses == {"feasible", "infeasible"}


def dividend_game(rng, lat, normalized=False):
    """Positive random dividends; normalized puts none on the bottom, so
    f(bottom) = 0 and the game is totally positive with a nonempty core."""
    coeffs = {x: Fraction(0 if normalized and x == lat.bottom else rng.randint(1, 6))
              for x in lat.elements}
    return MobiusCoefficients(lat, coeffs).zeta_expand()


def deficit_game(rng, lat, normalized=False):
    """A dividend game whose top falls short of the atoms' total gain over
    the bottom; with the bottom normalized its core is empty."""
    values = dict(dividend_game(rng, lat, normalized).values)
    gain = sum((values[a] - values[lat.bottom] for a in lat.atoms), Fraction(0))
    values[lat.top] = values[lat.bottom] + gain - rng.randint(1, 6)
    return LatticeGame(lat, values)


def test_integer_tableau_matches_the_oracle_on_core_systems():
    rng = random.Random(79)
    statuses = set()
    for tag, sizes in [("2^N", (1, 2, 3, 4)), ("P^N", (1, 2, 3, 4)),
                       ("E^N", (1, 2, 3))]:
        for n in sizes:
            lat = lattice_for(tag, n)
            for _ in range(3):
                randomized = LatticeGame(lat, {
                    x: Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                    for x in lat.elements})
                for game in (randomized, dividend_game(rng, lat),
                             deficit_game(rng, lat)):
                    statuses.add(assert_same_phase1(*core_lp(game)))
    assert statuses == {"feasible", "infeasible"}


HEADLINE = {"rank-cubed": lambda r: r ** 3, "two-to-the-rank": lambda r: 2 ** r - 1}


@pytest.mark.parametrize("tag, n, family, status", [
    pytest.param("P^N", 5, None, None, id="P^N-5"),
    pytest.param("E^N", 4, None, None, id="E^N-4"),
    pytest.param("2^N", 5, None, None, id="2^N-5"),
    pytest.param("P^N", 5, "rank-cubed", "empty", id="P^N-5-rank-cubed"),
    pytest.param("P^N", 5, "two-to-the-rank", "empty", id="P^N-5-two-to-the-rank"),
    pytest.param("P^N", 4, "rank-cubed", "nonempty", id="P^N-4-rank-cubed"),
    pytest.param("P^N", 4, "two-to-the-rank", "empty", id="P^N-4-two-to-the-rank"),
])
def test_integer_tableau_matches_the_oracle_at_bench_sizes(tag, n, family, status):
    """The lattices of 32 to 52 elements that the core benchmark solves:
    one feasible and one infeasible core system each.  Then the paper's
    headline case, f = rank^3 and f = 2^rank - 1 on partitions: both are
    supermodular and not totally positive, and the core is empty on P^5
    (and for 2^rank - 1 on P^4) with a verified certificate."""
    lat = lattice_for(tag, n)
    if family is None:
        rng = random.Random(83)
        games = [dividend_game(rng, lat, normalized=True),
                 deficit_game(rng, lat, normalized=True)]
        statuses = [assert_same_phase1(*core_lp(game)) for game in games]
        assert statuses == ["feasible", "infeasible"]
        return
    f = HEADLINE[family]
    game = LatticeGame(lat, {x: f(lat.rank(x)) for x in lat.elements})
    assert is_supermodular(game)
    assert not is_totally_positive(game)
    report = core_feasible(game)
    assert report.status == status
    if report:
        assert core_contains(game, report.witness)
    else:
        verify_certificate(game, report.certificate)
    expected = "feasible" if status == "nonempty" else "infeasible"
    assert assert_same_phase1(*core_lp(game)) == expected


def test_no_assert_statement_in_the_package():
    """Asserts vanish under python -O, so no check in the package may be one."""
    root = Path(lattice_games.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(root.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_proof_checks_run_under_python_O():
    """Under -O asserts vanish; the checks on a witness, a certificate, a
    separating family, a restricted game, cu shares, chain counts, su
    shares, a cover walk, a chain listing and a partition enumeration
    must still raise.
    A patched _phase1 hands core_feasible bad proof objects, a patched
    meet a wrong top value, patched cached chain counts wrong cu
    weights, a patched mobius another game's dividends to su, a patched
    chain count a wrong total, a patched enumeration one partition short
    or one mask twice.  Two patched atom bitsets reach the Hasse table
    build: one that leaves the singleton {1} out of atom 1's bitset makes
    {1,2} the join of the bottom and {1}, two ranks up, and one that leaves
    {2} out of atom 2's bitset makes {1,2} a cover of the bottom adding
    atom 1 again, after {1} added it."""
    script = textwrap.dedent("""
        import sys
        from fractions import Fraction
        import lattice_games
        from lattice_games import coresep, games, lattice, solutions, transform
        from lattice_games.lattice import lattice_for
        from lattice_games.transform import LatticeGame

        print("optimize", sys.flags.optimize)
        print("ValueError", issubclass(coresep.VerificationError, ValueError))
        print("one class", coresep.VerificationError is lattice.VerificationError
              is lattice_games.VerificationError)
        lat = lattice_for("P^N", 3)  # 5 lower bounds, top value 3
        game = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
        cases = [  # proofs as ints over det, last
            ("witness", ("feasible", [6, 0, 0], 2)),
            ("negative", ("infeasible", ([-1, 0, 0, 0, 0], 0), 1)),
            ("uncancelled", ("infeasible", ([2] * 5, 0), 2)),
            ("nonpositive", ("infeasible", ([0] * 5, 0), 3)),
        ]
        for name, proof in cases:
            coresep._phase1 = lambda *args, proof=proof: proof
            try:
                coresep.core_feasible(game)
                print(name, "returned")
            except Exception as err:
                print(name, type(err).__name__, err)
        family = coresep.separability_test(game).family
        coresep._first_violation = lambda game, v: lat.top
        try:
            family.member({1: 1, 2: 1, 3: -2})
            print("member returned")
        except Exception as err:
            print("member", type(err).__name__, err)
        lat.meet_index = lambda i, j: 0
        try:
            games.clustering_restrict(game, lat.parse_element("1,2|3"))
            print("restrict returned")
        except Exception as err:
            print("restrict", type(err).__name__, err)
        lat._store["_hasse"] = (lat._hasse()[0], (1,) * 5, (7,) * 5)
        try:
            solutions.cu(game)
            print("cu returned")
        except Exception as err:
            print("cu", type(err).__name__, err)
        cubes = lattice_for("2^N", 3)  # atom 0 read as not held by element 1 of 8
        index, bitsets, flipped = cubes._incidence()
        cubes._store["_incidence"] = (index, bitsets, (flipped[0] & ~(1 << 6),) + flipped[1:])
        try:
            cubes.chain_count_total()
            print("counts returned")
        except Exception as err:
            print("counts", type(err).__name__, err)
        solutions.mobius = lambda g: transform.mobius(2 * g)
        try:
            solutions.su(game)
            print("su returned")
        except Exception as err:
            print("su", type(err).__name__, err)
        subsets = lattice_for("2^N", 2)  # atom 1 read as not held by element 2 of 4
        index, bitsets, flipped = subsets._incidence()
        subsets._store["_incidence"] = (index, bitsets, (flipped[0], flipped[1] & ~0b10))
        try:
            list(subsets.cover_indices(0))
            print("covers returned")
        except Exception as err:
            print("covers", type(err).__name__, err)
        lat.chain_count_total = lambda: 99
        try:
            lat.maximal_chains()
            print("chains returned")
        except Exception as err:
            print("chains", type(err).__name__, err)
        parts, masks = lattice._partitions(3)
        for name, corrupt in [("short", (parts[:-1], masks[:-1])),
                              ("twice", (parts, masks[:-1] + masks[:1]))]:
            lattice._partitions = lambda n, corrupt=corrupt: corrupt
            try:
                lattice.PartitionLattice(3)
                print(name, "returned")
            except Exception as err:
                print(name, type(err).__name__, err)
    """)
    package_root = Path(lattice_games.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(package_root), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "optimize 1",
        "ValueError False",
        "one class True",
        "witness VerificationError simplex returned an infeasible point",
        "negative VerificationError negative inequality multiplier",
        "uncancelled VerificationError certificate does not cancel the shares",
        "nonpositive VerificationError certificate combination is not positive",
        "member VerificationError member of a verified family fails to separate",
        "restrict VerificationError restricted game does not end at the cluster's value",
        "cu VerificationError cu shares on P^N with n=3 do not sum to f(top) - f(bottom)",
        "counts VerificationError element 4 of rank 2 is no cover of element 0 of rank 0 "
        "on 2^N with n=3",
        "su VerificationError su shares on P^N with n=3 do not sum to f(top) - f(bottom)",
        "covers VerificationError covers of element 0 on 2^N with n=2 overlap",
        "chains VerificationError 3 maximal chains listed on P^N with n=3, 99 counted",
        "short VerificationError 4 partitions with 4 distinct masks enumerated on "
        "P^N with n=3, Bell number 5",
        "twice VerificationError 5 partitions with 4 distinct masks enumerated on "
        "P^N with n=3, Bell number 5",
    ]


# ---------------------------------------------------------------------------
# separability of partition games


def test_rank_game_separates_with_cardinality_base():
    for n in (3, 4, 5):
        lat = lattice_for("P^N", n)
        report = separability_test(rank_game(lat))
        assert report
        fam = report.family
        assert fam.singleton_total() == 0
        for size in range(1, n + 1):
            for combo in combinations(range(1, n + 1), size):
                assert fam.base[frozenset(combo)] == size - 1
        assert fam.base[frozenset()] == 0


def test_size_game_separates_with_pair_count_base():
    for n in (3, 4, 5):
        lat = lattice_for("P^N", n)
        report = separability_test(size_game(lat))
        assert report
        for size in range(1, n + 1):
            for combo in combinations(range(1, n + 1), size):
                assert report.family.base[frozenset(combo)] == comb(size, 2)


def mobius_pattern_function(n, mu_of_size):
    """Set function from a size-dependent Mobius pattern."""
    v = {}
    for size in range(n + 1):
        for combo in combinations(range(1, n + 1), size):
            acc = Fraction(0)
            for k in range(size + 1):
                acc += comb(size, k) * mu_of_size(k)
            v[frozenset(combo)] = acc
    return v


def test_rank_variant_with_alternating_dividends():
    """A second separating function for the rank: dividends (-1)^|A| on
    groups of two or more."""
    for n in (3, 4, 5):
        lat = lattice_for("P^N", n)
        fam = separability_test(rank_game(lat)).family
        variant = mobius_pattern_function(
            n, lambda k: Fraction((-1) ** k if k > 1 else 0))
        assert fam.contains(variant)
        member = fam.member({i: variant[frozenset((i,))] for i in range(1, n + 1)})
        for group, q in member.items():
            if group:
                assert q == variant[group]


def test_size_variant_with_alternating_dividends():
    """A second separating function for the size: dividends (-1)^(|A|+1)
    except on pairs; it differs from the base only at the empty set."""
    for n in (3, 4, 5):
        lat = lattice_for("P^N", n)
        fam = separability_test(size_game(lat)).family
        variant = mobius_pattern_function(
            n, lambda k: Fraction((-1) ** (k + 1) if k != 2 else 0))
        assert variant[frozenset()] == -1
        assert fam.contains(variant)
        member = fam.member({i: variant[frozenset((i,))] for i in range(1, n + 1)})
        for group, q in member.items():
            if group:
                assert q == variant[group]


def test_every_three_element_partition_game_separates():
    """With three elements every partition merges at most one group, so
    the recovery constraints cover the whole lattice and nothing can
    fail; the top indicator separates via the full-set indicator."""
    lat = lattice_for("P^N", 3)
    rng = random.Random(41)
    for _ in range(10):
        g = LatticeGame(lat, {x: Fraction(rng.randint(-9, 9)) for x in lat.elements})
        assert separability_test(g)
    report = separability_test(zeta_game(lat, lat.top))
    assert report
    full = frozenset({1, 2, 3})
    for group, q in report.family.base.items():
        assert q == (1 if group == full else 0)


def test_two_pair_merge_indicator_is_not_separable():
    """The indicator of "1,2 and 3,4 both merged" is the smallest
    non-separable up-set indicator: its own partition already breaks the
    blockwise account, since both pair values were pinned to zero."""
    lat = lattice_for("P^N", 4)
    report = separability_test(zeta_game(lat, lat.parse_element("1,2|3,4")))
    assert not report
    assert report.family is None
    assert report.violated == lat.parse_element("1,2|3,4")


def test_additively_generated_games_always_separate():
    rng = random.Random(47)
    for n in (3, 4):
        for _ in range(10):
            v = subset_game(n, lambda a: Fraction(rng.randint(-20, 20), 3))
            f = additive_global(v)
            report = separability_test(f)
            assert report
            member = report.family.member(
                {i: v.values[frozenset((i,))] for i in range(1, n + 1)})
            for group, q in member.items():
                if group:
                    assert q == v.values[group]


def test_family_member_validation():
    fam = separability_test(rank_game(lattice_for("P^N", 3))).family
    with pytest.raises(ValueError, match="sum"):
        fam.member({1: 1, 2: 0, 3: 0})
    with pytest.raises(ValueError, match="singleton"):
        fam.member({1: 0, 2: 0})
    shifted = fam.member({1: 1, 2: -1, 3: 0})
    assert shifted[frozenset((1,))] == 1
    assert shifted[frozenset((1, 2))] == 1  # pulled down by the sum rule
    assert fam.contains(shifted)


def test_family_is_convex():
    fam = separability_test(size_game(lattice_for("P^N", 4))).family
    a = fam.member({1: 2, 2: -2, 3: 0, 4: 0})
    b = fam.member({1: 0, 2: 0, 3: 1, 4: -1})
    alpha = Fraction(1, 3)
    mix = {g: alpha * a[g] + (1 - alpha) * b[g] for g in a}
    assert fam.contains(mix)


def test_random_partition_games_are_rarely_separable():
    rng = random.Random(53)
    lat = lattice_for("P^N", 4)
    hits = 0
    for _ in range(20):
        g = LatticeGame(lat, {x: Fraction(rng.randint(-9, 9)) for x in lat.elements})
        report = separability_test(g)
        if report:
            hits += 1
        else:
            assert report.violated in set(lat.elements)
    assert hits == 0


def test_separability_rejects_subset_games():
    g = subset_game(3, len)
    with pytest.raises(ValueError, match="P\\^N and E\\^N"):
        separability_test(g)


# ---------------------------------------------------------------------------
# separability of embedded-subset games


def test_pff_separation_recovers_the_set_function_exactly():
    rng = random.Random(61)
    for n in (2, 3):
        for _ in range(10):
            v = subset_game(n, lambda a: Fraction(rng.randint(-15, 15), 2))
            h = additive_pff(v)
            report = separability_test(h)
            assert report
            assert report.family is None
            for group, q in report.v.items():
                assert q == v.values[group]  # the empty set included
            for x in h.lattice.elements:
                assert pff_value(report.v, x) == h.values[x]


def test_perturbed_pff_games_are_not_separable():
    v = subset_game(2, lambda a: Fraction(len(a)))
    h = additive_pff(v)
    lat = h.lattice
    bumped = dict(h.values)
    bumped[lat.top] += 1
    report = separability_test(LatticeGame(lat, bumped))
    assert not report
    assert report.violated in set(lat.elements)


def test_embedded_top_indicator_is_not_separable():
    """Unlike the plain partition case, the double count of the marked
    block constrains even the two-element lattice."""
    lat = lattice_for("E^N", 2)
    report = separability_test(zeta_game(lat, lat.top))
    assert not report
    assert report.violated == lat.parse_element(";1,2")


# ---------------------------------------------------------------------------
# the additive lift and separability against their Fraction forms


def pff_value(v, x):
    """Evaluate the embedded-subset game built from a set function."""
    acc = parse_fraction(v[frozenset(x.subset)])
    for b in x.partition.blocks:
        acc += parse_fraction(v[frozenset(b)])
    return acc


def blockwise_value(v, x):
    """The Fraction blockwise sum of a set function at an element of P^n
    or E^n; v(A) counts once more on the distinguished block A of E^n."""
    if isinstance(x, EmbeddedSubset):
        return pff_value(v, x)
    return sum((v[frozenset(b)] for b in x.blocks), Fraction(0))


def blockwise_oracle(v, lat):
    """The game of blockwise sums of v on every element of lat."""
    return LatticeGame(lat, {x: blockwise_value(v, x) for x in lat.elements})


def first_violation_oracle(game, v):
    """First element (in lattice order) whose Fraction blockwise sum
    misses the game's value."""
    for x, q in zip(game.lattice.elements, game.vector()):
        if blockwise_value(v, x) != q:
            return x
    return None


def random_set_function(n, rng):
    """A subset game with negative and fractional values."""
    return subset_game(n, lambda a: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 5, 12))))


def test_additive_lifts_equal_the_fraction_blockwise_sum():
    rng = random.Random(67)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            v = random_set_function(n, rng)
            f, h = additive_global(v), additive_pff(v)
            assert f._ints == blockwise_oracle(v.values, lattice_for("P^N", n))._ints
            assert h._ints == blockwise_oracle(v.values, lattice_for("E^N", n))._ints


def separability_cases(lat, rng):
    """Random games, lifted games and lifted games bumped at one seeded
    element."""
    n = lat.n
    lift = additive_global if lat.tag == "P^N" else additive_pff
    for _ in range(3):
        yield LatticeGame(lat, {x: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                for x in lat.elements})
        lifted = lift(random_set_function(n, rng))
        yield lifted
        bumped = dict(lifted.values)
        bumped[rng.choice(lat.elements)] += Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 7)))
        yield LatticeGame(lat, bumped)


def report_and_members(game, rng_seed):
    """A separability report's verdict, witness, base or set function,
    and the family members at seeded singleton values."""
    report = separability_test(game)
    out = [bool(report), report.violated,
           None if report.v is None else list(report.v.items())]
    if report.family is not None:
        fam = report.family
        base = list(fam.base.items())
        # singletons, then larger groups by size in lex order, the empty group last
        assert [g for g, _ in base] == [frozenset(c) for size in range(1, fam.n + 1)
                                        for c in combinations(range(1, fam.n + 1), size)
                                        ] + [frozenset()]
        out.append(base)
        rng = random.Random(rng_seed)
        for _ in range(2):
            chosen = {i: Fraction(rng.randint(-9, 9), rng.choice((1, 4)))
                      for i in range(1, fam.n)}
            chosen[fam.n] = fam.singleton_total() - sum(chosen.values(), Fraction(0))
            out.append(list(fam.member(chosen).items()))
    return out


@pytest.mark.parametrize("tag,n", [("P^N", n) for n in range(1, 6)]
                         + [("E^N", n) for n in range(1, 5)])
def test_separability_matches_the_fraction_check(monkeypatch, tag, n):
    """Verdict, witness, base (keys in the same order) and members agree
    with the check that re-evaluates every blockwise sum in Fractions."""
    lat = lattice_for(tag, n)
    rng = random.Random(70 + 10 * n + len(tag))
    verdicts = set()
    for k, game in enumerate(separability_cases(lat, rng)):
        got = report_and_members(game, k)
        with monkeypatch.context() as m:
            m.setattr(coresep, "_first_violation", first_violation_oracle)
            want = report_and_members(game, k)
        assert got == want
        verdicts.add(got[0])
    assert True in verdicts
    if n > (3 if tag == "P^N" else 1):  # below that every game separates
        assert False in verdicts


def test_contains_ignores_the_empty_group_and_stray_keys():
    lat = lattice_for("P^N", 4)
    fam = separability_test(size_game(lat)).family
    v = {tuple(sorted(g)): q for g, q in fam.base.items() if g}
    assert fam.contains(v)
    assert fam.contains({**v, (): "5/3", (7,): 1, (1, 9): "-2", (1, 2, 3, 4, 5): 0})
    assert not fam.contains({**v, (1, 2): v[(1, 2)] + 1})
    missing = dict(v)
    del missing[(2, 3, 4)]
    assert not fam.contains({**missing, (2, 3, 4, 5): 3})


def test_separability_past_a_lowered_environment_cap(monkeypatch):
    """Games built past a lowered LATTICE_GAMES_MAX_N still get a verdict,
    while additive_pff keeps refusing to build E^3 under that cap."""
    rng = random.Random(71)
    v = random_set_function(3, rng)
    h, f = additive_pff(v), additive_global(v)
    bumped = dict(h.values)
    bumped[h.lattice.top] += 1
    monkeypatch.setenv("LATTICE_GAMES_MAX_N", "2")
    report = separability_test(h)
    assert report
    assert report.v == v.values
    report = separability_test(LatticeGame(h.lattice, bumped))
    assert not report
    # the top pins v({1,2,3}), so the bump surfaces where that value is summed
    assert report.violated == h.lattice.parse_element(";1,2,3")
    fam = separability_test(f).family
    assert fam.contains(v.values)
    assert fam.member({i: v.values[frozenset((i,))] for i in (1, 2, 3)}) == {
        **{g: q for g, q in v.values.items() if g}, frozenset(): 0}
    with pytest.raises(SizeLimitError, match="over the cap 2"):
        additive_pff(v)
