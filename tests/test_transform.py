"""Mobius/zeta layer: inversion against closed forms and defining sums."""

import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest

from lattice_games.cli import _approx
from lattice_games.games import clustering_restrict
from lattice_games import transform
from lattice_games.lattice import SizeLimitError, lattice_for
from lattice_games.solutions import graph_restrict
from lattice_games.transform import (
    LatticeGame,
    MobiusCoefficients,
    _canonical,
    _format_ratio,
    _over_lcm,
    _plain_over_lcm,
    _ratio,
    format_fraction,
    mobius,
    parse_fraction,
    zeta_expand,
    zeta_game,
)

SMALL_LATTICES = [("2^N", 3), ("2^N", 4), ("P^N", 3), ("P^N", 4), ("E^N", 2), ("E^N", 3)]


def scaled_oracle(vector):
    """(ints, d): Fractions as integers over d, the lcm of their
    denominators.  The view is canonical: a prime's highest power in d
    divides some denominator q, whose int then lacks that prime."""
    d = lcm(*(q.denominator for q in vector))
    return [q.numerator * (d // q.denominator) for q in vector], d


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


def arithmetic_operands(kind):
    """Two games on P^3, rank and size, made in one of the ways a table
    is made: built by the constructor, read from a payload, or derived."""
    lat = lattice_for("P^N", 3)
    rank = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    size = LatticeGame(lat, {x: lat.size(x) for x in lat.elements})
    if kind == "parsed":
        return tuple(LatticeGame.from_payload(g.payload()) for g in (rank, size))
    if kind == "derived":
        shift = zeta_game(lat, lat.bottom)
        return tuple((g + 5 * shift).normalize_bottom()[0] for g in (rank, size))
    return rank, size


def check_game_arithmetic(kind):
    g, h = arithmetic_operands(kind)
    lat = g.lattice
    s = g + h
    diff = s - h
    scaled = {c: (c * g, g * c) for c in (2, Fraction(1, 2), "-3/6", 0)}
    for table in (s, diff, *(t for pair in scaled.values() for t in pair)):
        assert table._vector is None
    assert s[lat.top] == 2 + 3
    assert s.vector() == tuple(p + q for p, q in zip(g.vector(), h.vector()))
    assert diff == g and diff.vector() == g.vector()
    assert scaled[2][0][lat.top] == 4
    assert scaled[Fraction(1, 2)][1][lat.top] == 1
    for c, (left, right) in scaled.items():
        assert left == right
        assert left.vector() == tuple(parse_fraction(c) * q for q in g.vector())
    other = LatticeGame(lattice_for("P^N", 4),
                        {x: 0 for x in lattice_for("P^N", 4).elements})
    with pytest.raises(TypeError):
        g + other


def test_game_arithmetic():
    """Sums, differences and scalar multiples hold only ints, however
    their operands were made, and equal the Fraction arithmetic."""
    for kind in ("constructed", "parsed", "derived"):
        check_game_arithmetic(kind)


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
            assert z._vector is None and z._ints[1] == 1
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
    """A table's integer view is all it stores, a zeta expansion's too;
    mobius hands its result the ints it computed, over the game's
    denominator.  Every view is canonical and ints[i] / d is
    vector()[i]."""
    rng = random.Random(31 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    for _ in range(4):
        game = random_game(lat, rng)
        coeffs = mobius(game)
        assert coeffs._ints[1] == game._ints[1]
        tables = [game, coeffs, game.normalize_bottom()[0], zeta_expand(coeffs),
                  clustering_restrict(game, rng.choice(lat.elements))]
        if tag == "2^N":
            edges = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.5]
            tables.append(graph_restrict(game, edges))
        for table in tables:
            ints, d = table._ints
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
    """Reducing any integer form of a vector gives scaled_oracle of its
    Fractions, and so does every table the package derives in ints:
    normalize_bottom against the shift done in Fractions."""
    rng = random.Random(41 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    for vector, spellings in seeded_vectors(rng, len(lat)):
        want = scaled_oracle(vector)
        ints, d = want
        k = rng.randint(1, 30)
        assert _canonical([q * k for q in ints], d * k) == want
        game = LatticeGame(lat, dict(zip(lat.elements, spellings)))
        assert game._ints == want and game.vector() == tuple(vector)
        shifted, shift = game.normalize_bottom()
        assert shift == vector[0]
        assert shifted._ints == scaled_oracle([q - vector[0] for q in vector])
        assert shifted.bottom_value == 0 and shifted.top_value == vector[-1] - vector[0]


def test_derived_tables_build_fractions_on_demand():
    """A derived table holds only ints until a Fraction is asked for;
    its ends read the ints, and equality compares canonical views of one
    type: a Mobius table with a game's ints is not that game."""
    lat = lattice_for("P^N", 3)
    game = LatticeGame(lat, {x: f"{4 * lat.rank(x) + 6}/4" for x in lat.elements})
    shifted, shift = game.normalize_bottom()
    coeffs = mobius(shifted)
    assert shift == Fraction(3, 2)
    for table in (shifted, coeffs):
        assert table._vector is None
    assert shifted._ints == ([0, 1, 1, 1, 2], 1)
    assert (shifted.bottom_value, shifted.top_value) == (0, 2)
    assert shifted._vector is None
    assert coeffs.support() == lat.elements[1:] and coeffs._vector is None  # the top at -1
    rank = LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})
    assert shifted == rank and shifted._vector is None
    assert shifted[lat.top] == 2 and shifted.vector() == rank.vector()
    assert mobius(rank).coefficients == coeffs.coefficients
    same = MobiusCoefficients._from_ints(lat, *rank._ints)
    assert same._ints == rank._ints and same != rank and rank != same


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
    with pytest.raises(ValueError, match="element keys are strings, got 1"):
        LatticeGame.from_payload({**good, "values": {"": "0", 1: "1"}})
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


@pytest.mark.parametrize("tag,n", [("2^N", 4), ("P^N", 5), ("E^N", 4)])
def test_mobius_and_zeta_read_the_down_set_table_once(monkeypatch, tag, n):
    """Each of mobius and zeta_expand reads the down-set getters in one
    call, never a down-set per element nor the order tables, and gives the
    same table."""
    lat = lattice_for(tag, n)
    game = random_game(lat, random.Random(n))
    mu = mobius(game)
    gets = lat._getters()
    reads = []

    def forbidden(*args):
        raise AssertionError("a down-set or the order tables were read")

    monkeypatch.setattr(lat, "downset_indices", forbidden)
    monkeypatch.setattr(lat, "_order_tables", forbidden)
    monkeypatch.setattr(lat, "_getters", lambda: reads.append(1) or gets)
    assert mobius(game) == mu and len(reads) == 1
    assert zeta_expand(mu) == game and len(reads) == 2


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 9)]
                         + [("P^N", n) for n in range(1, 9)]
                         + [("E^N", n) for n in range(1, 8)])
def test_getter_kernel_equals_the_downset_oracle_up_to_the_cap(tag, n):
    """mobius and zeta_expand, read through the down-set getters, equal the
    per-element downset_indices recursion and sums in Fractions on every
    lattice up to the default cap, the one-element P^1 included."""
    lat = lattice_for(tag, n)
    rng = random.Random(53 * n + ord(tag[0]))
    game = random_game(lat, rng)
    values, mu = game.vector(), []
    for i, v in enumerate(values):
        mu.append(v - sum((mu[j] for j in lat.downset_indices(i) if j != i), Fraction(0)))
    assert mobius(game).vector() == tuple(mu)
    sparse = MobiusCoefficients(lat, {x: rng.randint(-5, 5) for x in (lat.bottom, lat.top)})
    for coeffs in (mobius(game), sparse):
        entry = coeffs.vector()
        sums = [sum((entry[j] for j in lat.downset_indices(i)), Fraction(0))
                for i in range(len(lat))]
        assert zeta_expand(coeffs).vector() == tuple(sums)
    assert zeta_expand(mobius(game)) == game


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
        # a bad value before, then after, a stray key and a second spelling
        last = next(k for k in reversed(values) if k != twin_of)
        for bad in ("0.5", True, "1/0", " 1/-2"):
            spoilt = {**values, last: bad}
            cases += [{**good, "values": {**spoilt, stray: "1"}},
                      {**good, "values": {stray: "1", **spoilt}},
                      {**good, "values": {**spoilt, twin: "1"}},
                      {**good, "values": {twin: "1", **spoilt}},
                      {**good, "values": {**missing, last: bad}}]
    for payload in cases:
        with pytest.raises(ValueError) as want:
            parsed_then_validated(payload)
        with pytest.raises(ValueError) as got:
            LatticeGame.from_payload(payload)
        assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# reading values straight into the integer view

CAP_LATTICES = ([("2^N", n) for n in range(1, 9)]
                + [("P^N", n) for n in range(1, 9)]
                + [("E^N", n) for n in range(1, 8)])


def spell(q, rng):
    """One text for the rational q among those the reader takes: "p/q"
    unreduced, signed, zero-padded or blank-padded, or a JSON int."""
    p, d = q.numerator, q.denominator
    k = rng.choice((1, 2, 7))
    form = rng.randrange(5)
    if form == 0:
        return f"{p * k}/{d * k}"  # "6/4"
    if form == 1:
        if d * k == 1:
            return f"{p:+d}"  # "+3"
        return f"{'-' if p <= 0 else '+'}{abs(p) * k}/{d * k}"  # "-0/7"
    if form == 2:
        return f"{p * k:03d}/{d * k:03d}"  # "007/010"
    if form == 3:
        return f" {p}/{d} " if d > 1 else f" {p} "  # " 5 "
    return p if d == 1 else f"{p}/{d}"  # a JSON int


def seeded_rationals(rng, size):
    return [Fraction(0) if rng.random() < 0.2
            else Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 4, 6, 10)))
            for _ in range(size)]


@pytest.mark.parametrize("tag,n", CAP_LATTICES)
def test_integer_ingest_equals_the_fraction_parse(tag, n):
    """A payload, the constructors and a sparse Mobius table read their
    values straight into the canonical view: the view parsed_then_validated
    gives, and scaled_oracle of the values read as Fractions, with no Fraction
    tuple built on the way in."""
    rng = random.Random(59 * n + ord(tag[0]))
    lat = lattice_for(tag, n)
    vector = seeded_rationals(rng, len(lat))
    spellings = [spell(q, rng) for q in vector]
    assert [Fraction(s) for s in spellings] == vector  # the spellings are right
    assert [parse_fraction(s) for s in spellings] == vector
    want = scaled_oracle(vector)
    payload = json.loads(json.dumps({"lattice": tag, "n": n, "values": {
        lat.key(x): s for x, s in zip(lat.elements, spellings)}}))
    read = LatticeGame.from_payload(payload)
    assert read._vector is None and read._ints == want
    assert read == parsed_then_validated(payload)
    for values in (spellings, vector, [int(q) if q.denominator == 1 else q for q in vector]):
        built = LatticeGame(lat, dict(zip(lat.elements, values)))
        assert built._vector is None and built._ints == want
    kept = rng.sample(range(len(lat)), min(6, len(lat)))
    coeffs = MobiusCoefficients(lat, {lat.elements[i]: spellings[i] for i in kept})
    assert coeffs._vector is None
    assert coeffs._ints == scaled_oracle([vector[i] if i in kept else Fraction(0)
                                          for i in range(len(lat))])
    assert read.vector() == tuple(vector)


# ---------------------------------------------------------------------------
# the one-pass reader and the one renderer

LIMIT = sys.get_int_max_str_digits()

# values the one-pass reader must take: "p/q" and "p" in JSON's number
# grammar, and JSON ints
PLAIN = ["0", "5", "-5", "-0", "-0/7", "12/4", "-3/9", "0/1", 0, 7, -12, 10 ** 30]

# spellings _ratio takes and JSON's grammar does not: the reader leaves them
# to _ratio, which reads the same rationals
LOOSE = ["+5", "+0/5", "007/010", "5/007", "-007", "00"]

# every other value: the reader leaves each to _ratio, which takes some
# ("  5 ", "\xa01/2") and refuses the rest
OTHER = ["", " ", "  5 ", " 1/2", "1/2 ", "\xa01/2", "1/2\x1c", "\t3", "1\x00/2", "1\x00",
         "1_0", "1/1_0", "\u0661", "\u0661/\u0662", "\uff11", "1/\uff12", "1/0", "0/00",
         "1/-2", "1/+2", "1 /2", "1/ 2", "1//2", "1/2/3", "/2", "1/", "/", "+", "-", "+-1",
         "--1", "1-", "1+2", "1,2", ",", "1,", "1.5", "1e3", "0x10", "true", "null",
         True, False, None, 1.5, Fraction(1, 2), [1], {"1": 1},
         "1" + "0" * LIMIT, "1/1" + "0" * LIMIT, "-1" + "0" * LIMIT + "/3"]

# a JSON int past the int-string limit: the reader leaves it to _ratio,
# which takes it as it is
WIDE = 10 ** LIMIT


def ratio_or_error(value):
    try:
        return _ratio(value)
    except ValueError as err:
        return type(err)


def test_plain_reader_takes_plain_values_and_leaves_the_rest():
    """The one-pass reader gives _over_lcm of what _ratio reads, or None
    and the loop reads the values one by one: never another (p, q), and
    never a value _ratio refuses.  Plain values, alone or mixed, it takes."""
    assert _plain_over_lcm(PLAIN) == _over_lcm([_ratio(v) for v in PLAIN])
    for value in PLAIN:
        assert _plain_over_lcm([value]) == _over_lcm([_ratio(value)])
    for value in LOOSE + OTHER:
        assert _plain_over_lcm([value]) is None, value
    for value in LOOSE:  # _ratio takes each, as Fraction reads it
        assert Fraction(*_ratio(value)) == Fraction(value), value
    assert ratio_or_error("1/1" + "0" * LIMIT) is SizeLimitError
    assert ratio_or_error(WIDE) == (WIDE, 1)
    assert _plain_over_lcm([WIDE, -1]) is None
    assert _plain_over_lcm(["5", WIDE]) is None
    # whole numbers: strings, JSON ints, both, and each mixed with "p/q"
    strings, ints = ["0", "5", "-5", "-0", "120", str(10 ** 30)], [0, 7, -12, 10 ** 30]
    for values in (strings, ints, strings + ints, strings + ["12/4", "-3/9"],
                   ints + ["-0/7", "12/4"], ["12/4"] + ints + strings):
        assert _plain_over_lcm(values) == _over_lcm([_ratio(v) for v in values]), values
    for value in LOOSE + OTHER:  # beside whole numbers the rest is still left to _ratio
        for whole in (["5", "-7"], [5, -7], ["5", 7]):
            assert _plain_over_lcm(whole + [value]) is None, value
    rng = random.Random(23)
    pool = PLAIN + LOOSE + OTHER + [WIDE]
    for _ in range(2000):
        picks = rng.sample(range(len(pool)), rng.randint(1, 5))
        values = [pool[k] for k in picks]
        got = _plain_over_lcm(values)
        if got is None:
            assert max(picks) >= len(PLAIN), values
        else:
            assert got == _over_lcm([_ratio(v) for v in values]), values


def fuzz_value(rng):
    """A random value for the reader, whether it is plain ("p/q" or "p" in
    JSON's number grammar, or a JSON int, within the int-string limit)
    and whether _ratio reads a number in it past that limit.  Its
    numbers run from zero and "-0" to the limit's length and one digit
    past it, with the odd leading zero or "+"."""
    def number():  # (text, plain, past the limit)
        kind = rng.randrange(6)
        if kind == 0:
            return "0", True, False
        if kind == 1:
            digits = rng.choices("0123456789", k=LIMIT - 1)
            return str(rng.randint(1, 9)) + "".join(digits), True, False
        if kind == 2:
            return "1" + "0" * LIMIT, False, True
        if kind == 3:
            return rng.choice(["0", "+"]) + str(rng.randint(0, 99)), False, False
        return str(rng.randint(1, 10 ** rng.randint(1, 12))), True, False

    p, plain, past = number()
    if p[0] != "+" and rng.random() < 0.4:
        p = "-" + p
    shape = rng.randrange(3)
    if shape == 1 and plain:  # a JSON int
        return int(p), True, False
    if shape == 2:
        q, q_plain, q_past = number()
        # _ratio refuses a signed q or q = 0 before it reads p
        readable = q[0] != "+" and q.strip("0") != ""
        return f"{p}/{q}", plain and q_plain and q != "0", (past or q_past) and readable
    return p, plain, past


def test_plain_reader_fuzz_equals_ratio():
    """Seeded mixes of "p" and "p/q" strings and JSON ints, with "-0",
    leading zeros and numbers at and past the int-string limit: the
    reader gives _over_lcm of what _ratio reads whenever every value is
    plain, and leaves the values to _ratio otherwise, never with another
    (p, q).  A number past the limit always reaches _ratio, which raises
    SizeLimitError (the CLI's exit 3)."""
    rng = random.Random(26)
    taken = left = 0
    for _ in range(400):
        picks = [fuzz_value(rng) for _ in range(rng.randint(1, 6))]
        values = [v for v, _, _ in picks]
        want = [ratio_or_error(v) for v in values]
        got = _plain_over_lcm(values)
        if all(plain for _, plain, _ in picks):
            assert got == _over_lcm(want), values
            taken += 1
        else:
            assert got is None or got == _over_lcm(want), values
            left += got is None
        if any(past for _, _, past in picks):
            assert got is None and SizeLimitError in want, values
    assert taken > 40 and left > 40


def test_from_payload_reads_a_plain_payload_in_one_pass(monkeypatch):
    """A payload with canonical keys and plain values, in any key order,
    never reaches the per-item reader; one blank value or one other key
    spelling sends it there, to the same game."""
    rng = random.Random(31)
    lat = lattice_for("P^N", 4)
    game = random_game(lat, rng)
    values = game.payload()["values"]
    order = list(values)
    rng.shuffle(order)
    shuffled = {**game.payload(), "values": {k: values[k] for k in order}}
    blank = {**shuffled, "values": {**shuffled["values"], order[0]: f" {values[order[0]]} "}}
    respelt = {**game.payload(), "values": {"0123": values["1|2|3|4"],
                                            **{k: values[k] for k in order if k != "1|2|3|4"}}}
    for payload in (blank, respelt):
        assert LatticeGame.from_payload(payload) == game

    ints = {**game.payload(), "values": {k: int(Fraction(values[k]) * 2520) for k in order}}
    scaled = 2520 * game

    def no_item_reads(value):
        raise AssertionError(f"read {value!r} one by one")

    monkeypatch.setattr(transform, "_ratio", no_item_reads)
    assert LatticeGame.from_payload(game.payload()) == game
    assert LatticeGame.from_payload(shuffled) == game
    assert LatticeGame.from_payload(ints) == scaled


def test_format_ratio_equals_format_fraction():
    """The renderer prints (p, d) as str(Fraction(p, d)) does: signed,
    zero, unit and huge, and refuses a reduced p or q past the limit."""
    rng = random.Random(41)
    half = 10 ** (LIMIT // 2)
    cases = [(0, 1), (0, 7), (1, 1), (-1, 1), (1, 3), (-1, 3), (6, 4), (-6, 4), (6, 3),
             (-6, 3), (12, 12), (-12, 12), (half + 1, 3 * half), (-half, half // 5),
             (2 * half - 1, half), (10 ** LIMIT, 10 ** LIMIT), (-(10 ** LIMIT), 10 ** (LIMIT - 1))]
    cases += [(rng.randint(-10 ** 40, 10 ** 40), rng.randint(1, 10 ** rng.randint(0, 30)))
              for _ in range(500)]
    for p, d in cases:
        assert _format_ratio(p, d) == format_fraction(Fraction(p, d)) == str(Fraction(p, d))
    for p, d in [(10 ** LIMIT, 1), (1, 10 ** LIMIT + 1), (-(10 ** LIMIT) - 1, 3)]:
        with pytest.raises(SizeLimitError, match=f"more than {LIMIT} digits"):
            _format_ratio(p, d)
        with pytest.raises(SizeLimitError, match=f"more than {LIMIT} digits"):
            format_fraction(Fraction(p, d))


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_game_payload_equals_the_fraction_rendering(tag, n):
    lat = lattice_for(tag, n)
    game = random_game(lat, random.Random(n + 7))
    want = {lat.key(x): format_fraction(q) for x, q in zip(lat.elements, game.vector())}
    assert game.payload()["values"] == want
    assert list(game.payload()["values"]) == list(want)
    for table in (game, mobius(game)):
        texts = table._render(lat.key_indices(), table._ints[0])
        assert texts == {lat.key(x): str(q) for x, q in zip(lat.elements, table.vector())}
        assert [Fraction(text) for text in texts.values()] == list(table.vector())
        assert [_approx(text) for text in texts.values()] == [repr(float(q))
                                                              for q in table.vector()]
