"""Mobius/zeta layer: inversion against closed forms and defining sums."""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from lattice_games.games import clustering_restrict
from lattice_games.lattice import lattice_for
from lattice_games.solutions import graph_restrict
from lattice_games.transform import (
    LatticeGame,
    MobiusCoefficients,
    _canonical,
    _scaled,
    format_fraction,
    mobius,
    parse_fraction,
    zeta_expand,
    zeta_game,
)

SMALL_LATTICES = [("2^N", 3), ("2^N", 4), ("P^N", 3), ("P^N", 4), ("E^N", 2), ("E^N", 3)]


def random_game(lat, rng):
    return LatticeGame(lat, {x: Fraction(rng.randint(-40, 40), rng.randint(1, 9))
                             for x in lat.elements})


def test_parse_fraction():
    assert parse_fraction("3/4") == Fraction(3, 4)
    assert parse_fraction(" -7/2 ") == Fraction(-7, 2)
    assert parse_fraction("5") == Fraction(5)
    assert parse_fraction(3) == Fraction(3)
    assert parse_fraction(Fraction(1, 3)) == Fraction(1, 3)
    for bad in ["1/0", "0.5", "", "a/b", 0.5, None, True, [1]]:
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_format_fraction():
    assert format_fraction(Fraction(-2, 6)) == "-1/3"
    assert format_fraction(Fraction(4)) == "4"
    assert parse_fraction(format_fraction(Fraction(22, 7))) == Fraction(22, 7)


def test_game_requires_total_values():
    lat = lattice_for("2^N", 2)
    values = {x: 0 for x in lat.elements}
    missing = dict(values)
    del missing[lat.top]
    with pytest.raises(ValueError, match="1,2"):
        LatticeGame(lat, missing)
    stray = dict(values)
    stray[frozenset({9})] = 1
    with pytest.raises(ValueError, match="not an element"):
        LatticeGame(lat, stray)
    with pytest.raises(ValueError, match="not an element"):
        LatticeGame(lat, {**values, "1": 1})


def test_game_lookup_and_bounds():
    lat = lattice_for("P^N", 3)
    g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    assert g.bottom_value == 0
    assert g.top_value == 2
    assert g[lat.parse_element("1,2|3")] == 1
    with pytest.raises(ValueError):
        g[frozenset({1})]


def test_normalize_bottom():
    lat = lattice_for("2^N", 2)
    g = LatticeGame(lat, {x: len(x) + 5 for x in lat.elements})
    base, shift = g.normalize_bottom()
    assert shift == 5
    assert base.bottom_value == 0
    assert base.top_value == 2
    again, zero = base.normalize_bottom()
    assert again is base and zero == 0


def test_game_arithmetic():
    lat = lattice_for("P^N", 3)
    g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    h = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
    s = g + h
    assert s[lat.top] == 2 + 3
    assert (s - h) == g
    assert (2 * g)[lat.top] == 4
    assert (g * Fraction(1, 2))[lat.top] == 1
    other = LatticeGame(lattice_for("P^N", 4),
                        {x: 0 for x in lattice_for("P^N", 4).elements})
    with pytest.raises(TypeError):
        g + other


def subset_mobius_closed_form(game, coalition):
    """Alternating-sign inclusion-exclusion over subsets of the coalition."""
    acc = Fraction(0)
    members = sorted(coalition)
    for k in range(len(members) + 1):
        for combo in combinations(members, k):
            sign = (-1) ** (len(coalition) - k)
            acc += sign * game.values[frozenset(combo)]
    return acc


def test_mobius_matches_inclusion_exclusion_on_subsets():
    rng = random.Random(11)
    for n in (2, 3, 4):
        lat = lattice_for("2^N", n)
        g = random_game(lat, rng)
        mu = mobius(g)
        for x in lat.elements:
            assert mu.coefficients[x] == subset_mobius_closed_form(g, x)


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_mobius_defining_property(tag, n):
    """f(y) equals the sum of coefficients over the down-set of y."""
    rng = random.Random(100 * n + len(tag))
    lat = lattice_for(tag, n)
    g = random_game(lat, rng)
    mu = mobius(g)
    for i, y in enumerate(lat.elements):
        acc = sum((mu.coefficients[lat.elements[j]] for j in lat.downset_indices(i)),
                  Fraction(0))
        assert acc == g.values[y]


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_zeta_mobius_roundtrip(tag, n):
    rng = random.Random(7 * n + len(tag))
    lat = lattice_for(tag, n)
    g = random_game(lat, rng)
    assert zeta_expand(mobius(g)) == g
    sparse = MobiusCoefficients(lat, {lat.top: Fraction(2, 3),
                                      lat.atoms[0]: -1})
    assert mobius(sparse.zeta_expand()) == sparse


def test_zeta_game_has_indicator_dividend():
    for tag, n in SMALL_LATTICES:
        lat = lattice_for(tag, n)
        for x in (lat.bottom, lat.atoms[0], lat.top):
            z = zeta_game(lat, x)
            mu = mobius(z)
            for y in lat.elements:
                assert mu.coefficients[y] == (1 if y == x else 0)
            assert z[x] == 1
            assert z[lat.top] == 1


def test_rank_game_dividends_on_partitions():
    """Rank puts one dividend on every pair merge and -1 at the top for n=3."""
    lat = lattice_for("P^N", 3)
    g = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    mu = mobius(g)
    assert mu.coefficients[lat.bottom] == 0
    for a in lat.atoms:
        assert mu.coefficients[a] == 1
    assert mu.coefficients[lat.top] == -1


def test_size_game_dividends_on_partitions():
    """Size is exactly one dividend per atom, for every n here."""
    for n in (3, 4):
        lat = lattice_for("P^N", n)
        g = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
        mu = mobius(g)
        atom_set = set(lat.atoms)
        for x in lat.elements:
            assert mu.coefficients[x] == (1 if x in atom_set else 0)


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_integer_view_is_the_vector_over_one_denominator(tag, n):
    """A table's integer view is built once, on first use, or is all a
    derived table holds; mobius hands its result the ints it computed,
    over the game's denominator.  Either way the view is canonical and
    ints[i] / d is vector()[i]."""
    rng = random.Random(31 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    for _ in range(4):
        game = random_game(lat, rng)
        coeffs = mobius(game)
        assert coeffs._integers()[1] == game._integers()[1]
        tables = [game, coeffs, game.normalize_bottom()[0], zeta_expand(coeffs),
                  clustering_restrict(game, rng.choice(lat.elements))]
        if tag == "2^N":
            edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
            tables.append(graph_restrict(game, edges))
        for table in tables:
            ints, d = table._integers()
            assert table._integers() is table._integers()
            assert d > 0 and len(ints) == len(lat)
            assert gcd(d, *ints) == 1
            assert [Fraction(q, d) for q in ints] == list(table.vector())


def seeded_vectors(rng, size):
    """Fraction vectors with shared factors, unreduced "p/q" spellings and
    a zero bottom among them, as (vector, spellings)."""
    for k in range(24):
        factor = rng.choice((1, 2, 6, 10))
        dens = rng.choice(((1,), (2, 4), (3, 9), (1, 2, 3, 5, 12)))
        pairs = [(factor * rng.randint(-20, 20), rng.choice(dens)) for _ in range(size)]
        if k % 3 == 0:
            pairs[0] = (0, rng.choice(dens))
        yield ([Fraction(p, q) for p, q in pairs],
               [f"{p * m}/{q * m}" for (p, q), m in zip(pairs, rng.choices((1, 2, 7), k=size))])


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_canonical_view_equals_the_scaled_fractions(tag, n):
    """Reducing any integer form of a vector gives _scaled of its
    Fractions, and so does every table the package derives in ints:
    normalize_bottom against the shift done in Fractions."""
    rng = random.Random(41 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    for vector, spellings in seeded_vectors(rng, len(lat)):
        want = _scaled(vector)
        ints, d = want
        k = rng.randint(1, 30)
        assert _canonical([q * k for q in ints], d * k) == want
        game = LatticeGame(lat, dict(zip(lat.elements, spellings)))
        assert game._integers() == want and game.vector() == tuple(vector)
        shifted, shift = game.normalize_bottom()
        assert shift == vector[0]
        assert shifted._integers() == _scaled([q - vector[0] for q in vector])
        assert shifted.bottom_value == 0 and shifted.top_value == vector[-1] - vector[0]


def test_derived_tables_build_fractions_on_demand():
    """A derived table holds only ints until a Fraction is asked for;
    its ends read the ints, and equality compares canonical views."""
    lat = lattice_for("P^N", 3)
    game = LatticeGame(lat, {x: f"{4 * lat.rank(x) + 6}/4" for x in lat.elements})
    shifted, shift = game.normalize_bottom()
    coeffs = mobius(shifted)
    assert shift == Fraction(3, 2)
    for table in (shifted, coeffs):
        assert table._vector is None
    assert shifted._integers() == ([0, 1, 1, 1, 2], 1)
    assert (shifted.bottom_value, shifted.top_value) == (0, 2)
    assert shifted._vector is None
    assert coeffs.support() == lat.elements[1:] and coeffs._vector is None  # the top at -1
    rank = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    assert shifted == rank and shifted._vector is None
    assert shifted[lat.top] == 2 and shifted.vector() == rank.vector()
    assert mobius(rank).coefficients == coeffs.coefficients


def test_mobius_table_rejects_strays():
    lat = lattice_for("2^N", 3)
    with pytest.raises(ValueError, match="not an element"):
        MobiusCoefficients(lat, {frozenset({1, 9}): 1})
    with pytest.raises(ValueError, match="not an element"):
        MobiusCoefficients(lat, {"1,2": 1})


def test_support():
    lat = lattice_for("2^N", 2)
    mu = MobiusCoefficients(lat, {lat.top: 5})
    assert mu.support() == (lat.top,)


def test_payload_roundtrip_and_order():
    for tag, n in SMALL_LATTICES:
        lat = lattice_for(tag, n)
        g = random_game(lat, random.Random(n))
        payload = g.payload()
        assert payload["lattice"] == tag and payload["n"] == n
        assert list(payload["values"]) == [lat.key(x) for x in lat.elements]
        assert LatticeGame.from_payload(payload) == g


def test_payload_rejects_bad_input():
    lat = lattice_for("2^N", 2)
    good = LatticeGame(lat, {x: 1 for x in lat.elements}).payload()
    with pytest.raises(ValueError, match="lattice"):
        LatticeGame.from_payload({**good, "lattice": "Q^N"})
    with pytest.raises(ValueError, match="integer"):
        LatticeGame.from_payload({**good, "n": "2"})
    with pytest.raises(ValueError, match="values"):
        LatticeGame.from_payload({"lattice": "2^N", "n": 2})
    short = {**good, "values": {"": "0", "1": "1"}}
    with pytest.raises(ValueError, match="missing value"):
        LatticeGame.from_payload(short)
    bad_val = {**good, "values": {**good["values"], "1,2": "0.5"}}
    with pytest.raises(ValueError, match="not a rational"):
        LatticeGame.from_payload(bad_val)
    with pytest.raises(ValueError):
        LatticeGame.from_payload("nope")


def test_payload_duplicate_spellings_detected():
    lat = lattice_for("P^N", 3)
    good = LatticeGame(lat, {x: 0 for x in lat.elements}).payload()
    values = dict(good["values"])
    values["001"] = "7"  # same partition as "1,2|3", spelled as code
    with pytest.raises(ValueError, match="duplicate"):
        LatticeGame.from_payload({**good, "values": values})


def test_payload_respects_cap():
    payload = {"lattice": "P^N", "n": 4, "values": {}}
    with pytest.raises(Exception, match="cap"):
        LatticeGame.from_payload(payload, max_n=3)


# ---------------------------------------------------------------------------
# the integer kernel against its Fraction forms

KERNEL_LATTICES = ([("2^N", n) for n in range(1, 8)]
                   + [("P^N", n) for n in range(1, 7)]
                   + [("E^N", n) for n in range(1, 6)])


def fraction_mobius(game):
    """The top-down recursion in Fraction arithmetic, one element at a
    time: the oracle for the integer mobius."""
    lat = game.lattice
    mu = []
    for i, x in enumerate(lat.elements):
        acc = game.values[x]
        for j in lat.downset_indices(i):
            if j != i:
                acc -= mu[j]
        mu.append(acc)
    return MobiusCoefficients(lat, dict(zip(lat.elements, mu)))


def mixed_games(lat, rng):
    """A random game over mixed denominators with zeros and negatives, a
    game with sparse dividends, and each of them shifted at the bottom."""
    dense = LatticeGame(lat, {
        x: 0 if rng.random() < 0.2
        else Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 7, 9, 12, 25, 97)))
        for x in lat.elements})
    sparse = MobiusCoefficients(lat, {
        x: Fraction(rng.randint(-9, 9), rng.choice((1, 5, 6)))
        for x in rng.sample(lat.elements, min(4, len(lat)))}).zeta_expand()
    ones = zeta_game(lat, lat.bottom)
    for g in (dense, sparse):
        yield g
        yield g.normalize_bottom()[0]
        yield g + Fraction(-7, 3) * ones


@pytest.mark.parametrize("tag,n", KERNEL_LATTICES)
def test_mobius_equals_the_fraction_recursion(tag, n):
    rng = random.Random(31 * n + len(tag) + ord(tag[0]))
    lat = lattice_for(tag, n)
    for _ in range(2):
        for g in mixed_games(lat, rng):
            mu = mobius(g)
            assert mu == fraction_mobius(g)
            assert all(type(q) is Fraction for q in mu.vector())


def dict_zeta_expand(coeffs):
    """Zeta expansion read through the element-keyed dict, one element at
    a time: the oracle for the index-vector zeta_expand."""
    lat = coeffs.lattice
    table = coeffs.coefficients
    values = {}
    for i, y in enumerate(lat.elements):
        values[y] = sum((table[lat.elements[j]] for j in lat.downset_indices(i)),
                        Fraction(0))
    return LatticeGame(lat, values)


def dict_below(coeffs, x):
    """The Mobius mass on the down-set of x, through the element-keyed
    dict; every other coefficient is zero."""
    lat = coeffs.lattice
    elems = lat.elements
    return MobiusCoefficients(lat, {elems[j]: coeffs.coefficients[elems[j]]
                                    for j in lat.downset_indices(lat.index(x))})


@pytest.mark.parametrize("tag,n", KERNEL_LATTICES)
def test_zeta_and_below_equal_the_dict_forms(tag, n):
    rng = random.Random(37 * n + len(tag) + ord(tag[0]))
    lat = lattice_for(tag, n)
    for g in mixed_games(lat, rng):
        mu = mobius(g)
        game = zeta_expand(mu)
        assert game == dict_zeta_expand(mu) == g
        assert all(type(q) is Fraction for q in game.vector())
        for x in {lat.bottom, lat.top, *rng.sample(lat.elements, min(3, len(lat)))}:
            kept = dict_below(mu, x)
            restricted = clustering_restrict(g, x)
            assert restricted == zeta_expand(kept) == dict_zeta_expand(kept)
            assert all(type(q) is Fraction for q in restricted.vector())


def parsed_then_validated(payload):
    """Every key parsed to its element, then the validating constructor:
    the oracle for from_payload."""
    lat = lattice_for(payload["lattice"], payload["n"])
    values = {}
    for key, text in payload["values"].items():
        x = lat.parse_element(key)
        if x in values:
            raise ValueError(f"duplicate value for element {lat.key(x)}")
        values[x] = parse_fraction(text)
    return LatticeGame(lat, values)


def _spell_partition(p, rng):
    if rng.random() < 0.3:
        return p.rgs()
    blocks = [list(b) for b in p.blocks]
    for b in blocks:
        rng.shuffle(b)
    rng.shuffle(blocks)
    return " | ".join(", ".join(map(str, b)) for b in blocks)


def respell(lat, x, rng):
    """Another key for x that the lattice's parser reads: members and
    blocks reordered, spaces added, or the restricted-growth form."""
    if lat.tag == "2^N":
        members = sorted(x)
        rng.shuffle(members)
        return " " + " , ".join(map(str, members)) + " "
    if lat.tag == "P^N":
        return _spell_partition(x, rng)
    members = list(x.subset)
    rng.shuffle(members)
    return ",".join(map(str, members)) + ";" + _spell_partition(x.partition, rng)


@pytest.mark.parametrize("tag,n", KERNEL_LATTICES)
def test_from_payload_equals_parse_then_validate(tag, n):
    rng = random.Random(17 * n + len(tag))
    lat = lattice_for(tag, n)
    game = next(mixed_games(lat, rng))
    canonical = game.payload()
    respelt = dict(canonical, values={
        respell(lat, x, rng) if rng.random() < 0.5 else lat.key(x): game.values[x]
        for x in rng.sample(lat.elements, len(lat))})
    for payload in (canonical, respelt):
        read = LatticeGame.from_payload(payload)
        assert read == parsed_then_validated(payload) == game
        assert all(type(q) is Fraction for q in read.vector())


def test_from_payload_keeps_the_error_messages():
    """Stray, missing and duplicate keys, one element under two spellings
    included, fail with the message the parse-then-validate path gives."""
    cases = []
    for tag, n, stray, twin in [("2^N", 3, "1,9", "2 ,1"), ("P^N", 3, "1,2", "001"),
                                ("E^N", 2, "3;1,2|3", "2,1;1,2")]:
        lat = lattice_for(tag, n)
        good = LatticeGame(lat, {x: 0 for x in lat.elements}).payload()
        values = good["values"]
        twin_of = lat.key(lat.parse_element(twin))
        missing = {k: v for k, v in values.items() if k != twin_of}
        cases += [{**good, "values": {**values, stray: "1"}},
                  {**good, "values": {**values, twin: "1"}},
                  {**good, "values": {twin: "1", **values}},
                  {**good, "values": missing},
                  {**good, "values": {**missing, "nonsense": "1"}}]
    for payload in cases:
        with pytest.raises(ValueError) as want:
            parsed_then_validated(payload)
        with pytest.raises(ValueError) as got:
            LatticeGame.from_payload(payload)
        assert str(got.value) == str(want.value)
