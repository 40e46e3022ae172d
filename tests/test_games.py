"""Game constructions: additive families, symmetric storage, predicates."""

import random
from fractions import Fraction
from math import comb

import pytest

from lattice_games.lattice import SizeLimitError, class_vectors, lattice_for
from lattice_games.transform import LatticeGame, MobiusCoefficients, mobius, zeta_game
from lattice_games.games import (
    PredicateReport,
    SymmetricGame,
    additive_global,
    additive_pff,
    clustering_restrict,
    is_monotone,
    is_supermodular,
    is_symmetric,
    is_totally_positive,
)


def subset_game(n, fn):
    lat = lattice_for("2^N", n)
    return LatticeGame(lat, {x: fn(x) for x in lat.elements})


def rank_game(lat):
    return LatticeGame(lat, {x: lat.rank(x) for x in lat.elements})


def size_game(lat):
    return LatticeGame(lat, {x: lat.size(x) for x in lat.elements})


def test_blockwise_sums_of_cardinality_games():
    """|A|-1 per block totals the rank, C(|A|,2) per block the size."""
    for n in (3, 4):
        lat = lattice_for("P^N", n)
        assert additive_global(subset_game(n, lambda a: len(a) - 1)) == rank_game(lat)
        assert additive_global(subset_game(n, lambda a: comb(len(a), 2))) == size_game(lat)


def test_additive_global_rejects_other_lattices():
    g = rank_game(lattice_for("P^N", 3))
    with pytest.raises(ValueError, match="subset"):
        additive_global(g)
    with pytest.raises(ValueError, match="subset"):
        additive_pff(g)


def test_additive_families_under_a_lower_environment_cap(monkeypatch):
    """P^n has the subset lattice's ground size, so additive_global builds
    it past a cap that v's lattice was built past; E^n needs n+1 and keeps
    the cap."""
    rng = random.Random(3)
    v = subset_game(3, lambda a: rng.randint(-9, 9))
    want = additive_global(v)
    monkeypatch.setenv("LATTICE_GAMES_MAX_N", "2")
    assert lattice_for("2^N", 3, 5) is v.lattice  # built past the cap
    assert additive_global(v) == want
    with pytest.raises(SizeLimitError, match="n=3 needs ground size 4, over the cap 2"):
        additive_pff(v)


def test_additive_pff_hand_example():
    v = subset_game(2, lambda a: {(): 0, (1,): 1, (2,): 2, (1, 2): 5}[tuple(sorted(a))])
    h = additive_pff(v)
    lat = h.lattice
    expected = {";1|2": 3, "2;1|2": 5, "1;1|2": 4, ";1,2": 5, "1,2;1,2": 10}
    for key, q in expected.items():
        assert h[lat.parse_element(key)] == q


def test_additive_pff_marks_one_block_on_top_of_the_blockwise_sum():
    rng = random.Random(5)
    for n in (2, 3):
        v = subset_game(n, lambda a: rng.randint(-9, 9))
        f = additive_global(v)
        h = additive_pff(v)
        for e in h.lattice.elements:
            p = f.lattice.parse_element(e.partition.label())
            assert h.values[e] == v.values[frozenset(e.subset)] + f.values[p]


def test_symmetric_game_expands_to_rank():
    sym = SymmetricGame("P^N", 3, {(3, 0, 0): 0, (1, 1, 0): 1, (0, 0, 1): 2})
    lat = lattice_for("P^N", 3)
    assert sym.expand() == rank_game(lat)
    assert is_symmetric(rank_game(lat)) == sym
    assert sym.value((1, 1, 0)) == 1
    with pytest.raises(ValueError, match="not a class"):
        sym.value((2, 0, 0))


def test_symmetric_game_on_embedded_lattice():
    sym = SymmetricGame("E^N", 2, {(3, 0, 0): "1/3", (1, 1, 0): 4, (0, 0, 1): -2})
    g = sym.expand()
    lat = g.lattice
    keyed = {lat.key(x): g.values[x] for x in lat.elements}
    assert keyed == {";1|2": Fraction(1, 3), "2;1|2": 4, "1;1|2": 4,
                     ";1,2": 4, "1,2;1,2": -2}
    assert is_symmetric(g) == sym


def test_symmetric_game_on_subsets():
    sym = SymmetricGame("2^N", 3, {0: 0, 1: 0, 2: 1, 3: 1})
    g = sym.expand()
    assert g[frozenset({1, 3})] == 1
    assert g[frozenset({2})] == 0
    assert is_symmetric(g) == sym


def test_asymmetric_games_are_detected():
    lat3 = lattice_for("P^N", 3)
    assert is_symmetric(zeta_game(lat3, lat3.parse_element("1,2|3"))) is None
    e2 = lattice_for("E^N", 2)
    # worth 1 once the pair forms, regardless of marking: constant on the
    # coarse classes it is not, since node atoms share a class with the pair
    assert is_symmetric(zeta_game(e2, e2.parse_element(";1,2"))) is None
    lat = lattice_for("2^N", 3)
    assert is_symmetric(zeta_game(lat, frozenset({1}))) is None
    top = zeta_game(lat3, lat3.top)
    assert is_symmetric(top) is not None


def test_symmetric_game_rejects_bad_tables():
    with pytest.raises(ValueError, match="missing value"):
        SymmetricGame("P^N", 3, {(3, 0, 0): 0, (1, 1, 0): 1})
    full = {(3, 0, 0): 0, (1, 1, 0): 1, (0, 0, 1): 2}
    with pytest.raises(ValueError, match="not a class"):
        SymmetricGame("P^N", 3, {**full, (2, 0, 0): 9})
    with pytest.raises(ValueError, match="tag"):
        SymmetricGame("Q^N", 3, full)
    with pytest.raises(ValueError):
        SymmetricGame("P^N", 0, {})
    for flag in (True, False):
        with pytest.raises(ValueError, match="positive integer"):
            SymmetricGame("2^N", flag, {0: 0, 1: 1})


def test_symmetric_payload_roundtrip():
    sym = SymmetricGame("P^N", 4, {cls: Fraction(i, 3)
                                   for i, cls in enumerate(class_vectors(4))})
    payload = sym.payload()
    assert payload["lattice"] == "P^N" and payload["n"] == 4
    assert SymmetricGame.from_payload(payload) == sym


def test_symmetric_payload_rejects_bad_keys():
    good = SymmetricGame("2^N", 2, {0: 0, 1: 1, 2: 2}).payload()
    for stray in ("x", "\u0661", 1):  # an Arabic-Indic one, and a key that is no string
        with pytest.raises(ValueError, match="class key"):
            SymmetricGame.from_payload({**good, "classValues": {stray: "0"}})
    with pytest.raises(ValueError, match="out of range"):
        SymmetricGame.from_payload(
            {**good, "classValues": {**good["classValues"], "7": "0"}})
    psym = SymmetricGame("P^N", 3, {(3, 0, 0): 0, (1, 1, 0): 1, (0, 0, 1): 2})
    p = psym.payload()
    assert SymmetricGame.from_payload(p) == psym
    for stray in ((3,), 3):
        with pytest.raises(ValueError, match="class key"):
            SymmetricGame.from_payload({**p, "classValues": {**p["classValues"], stray: "0"}})
    dup = {**p["classValues"], "1,2": "5"}  # same class as "2,1", resorted
    with pytest.raises(ValueError, match="duplicate"):
        SymmetricGame.from_payload({**p, "classValues": dup})


def test_clustering_restrict_on_partitions():
    lat = lattice_for("P^N", 3)
    cluster = lat.parse_element("1,2|3")
    restricted = clustering_restrict(size_game(lat), cluster)
    keyed = {lat.key(x): restricted.values[x] for x in lat.elements}
    assert keyed == {"1|2|3": 0, "1,2|3": 1, "1,3|2": 0, "1|2,3": 0, "1,2,3": 1}
    assert restricted.top_value == size_game(lat)[cluster]


def test_clustering_restrict_on_subsets():
    g = subset_game(3, lambda a: comb(len(a), 2))
    cluster = frozenset({1, 2})
    restricted = clustering_restrict(g, cluster)
    for x in g.lattice.elements:
        assert restricted.values[x] == (1 if cluster <= x else 0)


def test_clustering_restrict_at_top_is_identity():
    lat = lattice_for("P^N", 3)
    g = size_game(lat)
    assert clustering_restrict(g, lat.top) == g


def test_supermodular_but_not_totally_positive():
    """Rank on three elements: every pair check passes (atom meets are
    bottom, joins the top), yet the top dividend is negative."""
    lat = lattice_for("P^N", 3)
    g = rank_game(lat)
    report = is_supermodular(g)
    assert report
    assert report.witness is None
    tp = is_totally_positive(g)
    assert not tp
    assert tp.witness == lat.top
    assert mobius(g).coefficients[lat.top] == -1


def test_rank_game_is_not_supermodular_for_four():
    lat = lattice_for("P^N", 4)
    report = is_supermodular(rank_game(lat))
    assert not report
    x, y = report.witness
    vals = rank_game(lat).values
    assert vals[lat.join(x, y)] + vals[lat.meet(x, y)] < vals[x] + vals[y]


def test_totally_positive_games_are_supermodular_here():
    """f(x v y) + f(x ^ y) - f(x) - f(y) is the Mobius mass on the z below
    x v y and below neither x nor y, so nonnegative mass passes the full
    pair scan on every lattice; core relies on this to skip the scan."""
    rng = random.Random(23)
    for tag, sizes in [("2^N", range(1, 6)), ("P^N", range(1, 6)), ("E^N", range(1, 5))]:
        for n in sizes:
            lat = lattice_for(tag, n)
            for k in range(4):
                dens = (1,) if k % 2 else (1, 2, 3, 7)
                coeffs = {x: Fraction(rng.choice((0, 0, 1, 2, 5)), rng.choice(dens))
                          for x in lat.elements}
                g = MobiusCoefficients(lat, coeffs).zeta_expand()
                assert is_totally_positive(g)
                assert is_supermodular(g)
                assert full_pair_scan(g) is None


def full_pair_scan(game):
    """First failing pair over all pairs, comparable ones included."""
    lat = game.lattice
    vals = game.values
    elems = lat.elements
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if vals[lat.join(x, y)] + vals[lat.meet(x, y)] < vals[x] + vals[y]:
                return (x, y)
    return None


def test_supermodular_scan_matches_the_full_pair_scan():
    """Skipping comparable pairs keeps the verdict and the first witness:
    totally positive games with one value lowered fail at varied pairs,
    over integer and mixed denominators."""
    rng = random.Random(29)
    verdicts = set()
    for tag, n in [("2^N", 4), ("P^N", 4), ("E^N", 3), ("2^N", 5), ("P^N", 5), ("E^N", 4)]:
        lat = lattice_for(tag, n)
        for k in range(12):
            dens = (1,) if k % 2 else (1, 2, 3, 5, 12)
            coeffs = {x: Fraction(rng.randint(0, 4), rng.choice(dens)) for x in lat.elements}
            values = dict(MobiusCoefficients(lat, coeffs).zeta_expand().values)
            values[rng.choice(lat.elements)] -= Fraction(rng.randint(0, 3), rng.choice(dens))
            g = LatticeGame(lat, values)
            expected = full_pair_scan(g)
            report = is_supermodular(g)
            assert report.holds == (expected is None)
            assert report.witness == expected
            verdicts.add(report.holds)
    assert verdicts == {True, False}


def first_falling_pair(game):
    """First pair x <= y with f(y) < f(x) over all pairs, in element order."""
    lat = game.lattice
    vals = game.values
    for x in lat.elements:
        for y in lat.elements:
            if lat.leq(x, y) and vals[y] < vals[x]:
                return (x, y)
    return None


def test_monotone_matches_the_full_pair_scan():
    """Checking the cover edges keeps the verdict and the first witness of
    the scan over all comparable pairs: games with nonnegative dividends,
    one value moved up or down, fail at varied pairs."""
    rng = random.Random(31)
    verdicts = set()
    for tag, n in [("2^N", 4), ("P^N", 4), ("E^N", 3), ("2^N", 5), ("P^N", 5), ("E^N", 4)]:
        lat = lattice_for(tag, n)
        for _ in range(12):
            coeffs = {x: Fraction(rng.randint(0, 2), rng.choice((1, 2, 3))) for x in lat.elements}
            values = dict(MobiusCoefficients(lat, coeffs).zeta_expand().values)
            values[rng.choice(lat.elements)] += Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
            g = LatticeGame(lat, values)
            expected = first_falling_pair(g)
            report = is_monotone(g)
            assert report.holds == (expected is None)
            assert report.witness == expected
            verdicts.add(report.holds)
    assert verdicts == {True, False}


def test_monotone_witnesses():
    lat = lattice_for("P^N", 3)
    assert is_monotone(rank_game(lat))
    falling = LatticeGame(lat, {x: -lat.rank(x) for x in lat.elements})
    report = is_monotone(falling)
    assert not report
    x, y = report.witness
    assert lat.leq(x, y) and falling.values[y] < falling.values[x]


def test_predicate_report_shapes():
    assert bool(PredicateReport(True)) is True
    bad = PredicateReport(False, witness="spot")
    assert not bad
    assert "spot" in repr(bad)


def test_symmetric_payload_rejects_stray_keys():
    good = SymmetricGame("2^N", 2, {0: 0, 1: 1, 2: 3}).payload()
    with pytest.raises(ValueError, match="unknown key 'clasValues'"):
        SymmetricGame.from_payload({**good, "clasValues": {"0": "9"}})
    with pytest.raises(ValueError, match="unknown key"):
        SymmetricGame.from_payload({"lattice": "2^N", "n": 2, "values": good["classValues"]})


def fraction_is_monotone(game):
    """is_monotone on the Fraction vector: the cover-edge form before it
    read the integer view."""
    lat = game.lattice
    masks = lat.masks
    vals = game.vector()
    least = list(vals)
    for i, row in reversed(tuple(enumerate(lat._hasse()[0]))):
        least[i] = min([vals[i]] + [least[j] for j in row])
    for i, q in enumerate(vals):
        if least[i] < q:
            j = next(j for j in range(i, len(vals)) if vals[j] < q and not masks[i] & ~masks[j])
            return PredicateReport(False, (lat.elements[i], lat.elements[j]))
    return PredicateReport(True)


def fraction_is_symmetric(game):
    """is_symmetric on the Fraction vector, before it read the integer view."""
    lat = game.lattice
    seen = {}
    for x, q in zip(lat.elements, game.vector()):
        cls = lat.class_of(x)
        if cls in seen:
            if seen[cls] != q:
                return None
        else:
            seen[cls] = q
    return SymmetricGame(lat.tag, lat.n, seen)


def test_predicates_on_the_integer_view_match_the_fraction_forms():
    """is_monotone and is_symmetric give the verdicts, witnesses and class
    tables of their Fraction forms, on parsed games and on the int-only
    games normalize_bottom and clustering_restrict derive, whose Fraction
    tuples they leave unbuilt."""
    rng = random.Random(37)
    verdicts = set()
    bare_seen = 0
    for tag, n in [("2^N", 3), ("P^N", 4), ("E^N", 3), ("2^N", 5), ("P^N", 5), ("E^N", 4)]:
        lat = lattice_for(tag, n)
        classes = sorted({lat.class_of(x) for x in lat.elements})
        for k in range(8):
            dens = (1,) if k % 2 else (1, 2, 3, 4, 6)
            if k % 4 < 2:
                coeffs = {x: Fraction(rng.randint(0, 3), rng.choice(dens)) for x in lat.elements}
                values = dict(MobiusCoefficients(lat, coeffs).zeta_expand().values)
            else:
                table = {c: Fraction(rng.randint(-6, 9), rng.choice(dens)) for c in classes}
                values = {x: table[lat.class_of(x)] for x in lat.elements}
            if k % 3:
                values[rng.choice(lat.elements)] += Fraction(rng.randint(-3, 3), rng.choice(dens))
            game = LatticeGame(lat, values)
            derived = [game.normalize_bottom()[0],
                       clustering_restrict(game, rng.choice(lat.elements))]
            for g in [game, *derived]:
                bare = g._vector is None
                mono = is_monotone(g)
                sym = is_symmetric(g)
                assert (g._vector is None) == bare
                bare_seen += bare
                oracle = LatticeGame(lat, dict(zip(lat.elements, g.vector())))
                expected = fraction_is_monotone(oracle)
                assert (mono.holds, mono.witness) == (expected.holds, expected.witness)
                assert sym == fraction_is_symmetric(oracle)
                verdicts.add((mono.holds, sym is None))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
    assert bare_seen >= 48
