"""Oracles and property checks for the lattice layer.

Chain-count formulas are checked against explicit depth-first
enumeration, meet/join against the defining bound properties, and sizes
against direct atom counting, so the closed forms never vouch for
themselves.  The order, meet, join, size and atoms-below that the
lattices read off their atom bitmasks are checked pair by pair against
operators on the element objects: frozenset operators on 2^N, and on
P^N and the images of E^N in P^(n+1) the test-local partition algebra
below (``refines``, ``partition_meet``, ``partition_join``,
``to_partition``), which the package no longer carries.  The chain
counts of [bottom, x] and [x, top] are test-local closed forms too,
checked against the lattice's cover-edge counts at every size up to
the default cap.  The elements, masks and order tables are checked
against the constructions they replaced: a sort of all
restricted-growth codes, the validating E^N preimage, and the |L|^2/2
mask-inclusion scan; the cover table and the joins against the walk up
the up-sets that scan yields.
"""

import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

import pytest

from lattice_games import lattice
from lattice_games.lattice import (
    CHAIN_CAP,
    DEFAULT_MAX_N,
    ENV_MAX_N,
    EmbeddedSubset,
    Partition,
    SizeLimitError,
    bell,
    class_count,
    class_key,
    class_vectors,
    ground_cap,
    lattice_for,
    parse_class_key,
)
from lattice_games.solutions import Solution, transport_solution

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140]

P3_ORDER = ["1|2|3", "1|2,3", "1,3|2", "1,2|3", "1,2,3"]
E2_ORDER = [";1|2", "2;1|2", "1;1|2", ";1,2", "1,2;1,2"]
SUBSET3_ORDER = ["", "1", "2", "3", "1,2", "1,3", "2,3", "1,2,3"]

SMALL_LATTICES = [("2^N", 3), ("2^N", 4), ("P^N", 3), ("P^N", 4), ("E^N", 2), ("E^N", 3)]


# -- the partition algebra on element objects, an oracle for the masks ------

def _owner(p):
    return {x: k for k, b in enumerate(p.blocks) for x in b}


def refines(p, q):
    """p <= q: every block of p sits inside a block of q."""
    owner = _owner(q)
    return all(owner[x] == owner[b[0]] for b in p.blocks for x in b)


def partition_meet(p, q):
    """Greatest lower bound: the nonempty blockwise intersections."""
    mine, theirs = _owner(p), _owner(q)
    groups = {}
    for x in range(1, p.n + 1):
        groups.setdefault((mine[x], theirs[x]), []).append(x)
    return Partition(p.n, groups.values())


def partition_join(p, q):
    """Least common coarsening: each block of p and of q merges the groups
    its elements are in."""
    group = {x: frozenset((x,)) for x in range(1, p.n + 1)}
    for b in p.blocks + q.blocks:
        merged = frozenset().union(*(group[x] for x in b))
        for x in merged:
            group[x] = merged
    return Partition(p.n, set(group.values()))


def to_partition(e):
    """Image of an embedded subset in P^(n+1): insert n+1 into A, or add it
    as a singleton."""
    m = e.n + 1
    if e.subset:
        blocks = [b if b != e.subset else b + (m,) for b in e.partition.blocks]
    else:
        blocks = list(e.partition.blocks) + [(m,)]
    return Partition(m, blocks)


def covers(lat, y, x):
    """True when y covers x."""
    return lat.rank(y) == lat.rank(x) + 1 and lat.leq(x, y)


def chains_below_closed(lat, x):
    """Maximal chains of [bottom, x] in closed form: |x|! on 2^N; on P^N
    the interval is one partition lattice per block, interleaved freely,
    which collapses to r! prod |b|! / 2^r (r the rank of p); E^N reads
    its image in P^(n+1)."""
    if lat.tag == "2^N":
        return factorial(len(x))
    p = x if lat.tag == "P^N" else to_partition(x)
    num = factorial(p.rank)
    for b in p.blocks:
        num *= factorial(len(b))
    return num // 2 ** p.rank


def chains_above_closed(lat, x):
    """Maximal chains of [x, top] in closed form: (n-|x|)! on 2^N; on
    P^N a partition lattice on the k blocks of p, k!(k-1)!/2^(k-1); E^N
    reads its image in P^(n+1)."""
    if lat.tag == "2^N":
        return factorial(lat.n - len(x))
    k = len((x if lat.tag == "P^N" else to_partition(x)).blocks)
    return factorial(k) * factorial(k - 1) // 2 ** (k - 1)


def chain_count_through(lat, x):
    """Maximal chains through x: those of [bottom, x] times those of
    [x, top]."""
    return chains_below_closed(lat, x) * chains_above_closed(lat, x)


def test_bell_table():
    for n, expected in enumerate(BELL):
        assert bell(n) == expected
    assert bell(9) == 21147


def test_partition_canonical_form():
    p = Partition(4, [[3, 4], (2,), [1]])
    assert p.blocks == ((1,), (2,), (3, 4))
    assert p == Partition(4, [(2,), (1,), (4, 3)])
    assert hash(p) == hash(Partition(4, [(2,), (1,), (3, 4)]))
    assert str(p) == "1|2|3,4"
    assert p.rgs() == "0122"
    assert Partition.parse("1|2|3,4") == p
    assert Partition.parse("0122") == p
    assert Partition.parse(p.label(), 4) == p
    assert Partition.from_rgs(p.rgs_tuple()) == p


def test_partition_validation_errors():
    with pytest.raises(ValueError):
        Partition(3, [(1, 2)])
    with pytest.raises(ValueError):
        Partition(3, [(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        Partition(3, [(1, 2, 3, 4)])
    with pytest.raises(ValueError):
        Partition(3, [(1, 2), ()])
    with pytest.raises(ValueError):
        Partition.pair(3, 2, 2)
    with pytest.raises(ValueError):
        Partition.parse("")
    with pytest.raises(ValueError):
        Partition.parse("021")
    with pytest.raises(ValueError):
        Partition.parse("1,2|x")
    with pytest.raises(ValueError):
        Partition.parse("1,2|3", 4)
    with pytest.raises(ValueError, match="outside"):
        Partition(2, [(True, 2)])
    with pytest.raises(ValueError, match="positive integer"):
        Partition(True, [(1,)])
    with pytest.raises(ValueError, match="positive integer"):
        Partition(2.0, [(1,), (2,)])
    with pytest.raises(ValueError, match="bool"):
        EmbeddedSubset((True,), Partition.bottom(2))


def test_enumeration_order_and_anchors():
    assert [p.label() for p in lattice_for("P^N", 3).elements] == P3_ORDER
    for n in range(1, 7):
        elems = lattice_for("P^N", n).elements
        assert len(elems) == BELL[n]
        assert elems[0] == Partition.bottom(n)
        assert elems[-1] == Partition.top(n)
        codes = [p.rgs_tuple() for p in elems]
        assert codes == sorted(codes, reverse=True)
        assert len(set(elems)) == len(elems)


def test_subset_enumeration():
    lat = lattice_for("2^N", 3)
    assert [lat.key(x) for x in lat.elements] == SUBSET3_ORDER
    assert lat.parse_element("") == frozenset()
    assert lat.parse_element("2,3") == frozenset({2, 3})
    with pytest.raises(ValueError):
        lat.parse_element("2,2")
    with pytest.raises(ValueError):
        lat.parse_element("4")
    assert len(lattice_for("2^N", 6).elements) == 64


def test_embedded_enumeration():
    lat = lattice_for("E^N", 2)
    assert [e.label() for e in lat.elements] == E2_ORDER
    assert [a.label() for a in lat.atoms] == ["1;1|2", "2;1|2", ";1,2"]
    assert len(lattice_for("E^N", 3).elements) == BELL[4]
    assert len(lattice_for("E^N", 4).elements) == BELL[5]
    e = EmbeddedSubset.parse("1,2;1,2|3")
    assert e.subset == (1, 2) and e.partition == Partition.parse("1,2|3")
    assert EmbeddedSubset.parse(";1|2|3").subset == ()
    with pytest.raises(ValueError):
        EmbeddedSubset.parse("1,2|3")
    with pytest.raises(ValueError):
        EmbeddedSubset((1,), Partition.parse("1,2|3"))


def test_meet_join_hand_cases():
    """Hand values, on the oracle and on the lattice alike."""
    lat3, lat4 = lattice_for("P^N", 3), lattice_for("P^N", 4)
    a12 = Partition.pair(3, 1, 2)
    a13 = Partition.pair(3, 1, 3)
    a23 = Partition.pair(3, 2, 3)
    p = Partition.parse("1,2,3|4")
    q = Partition.parse("1,2|3,4")
    for meet, join in [(partition_meet, partition_join), (lat3.meet, lat3.join)]:
        assert join(a12, a23) == Partition.top(3)
        assert meet(a12, a13) == Partition.bottom(3)
        assert meet(a12, a12) == a12
    for meet, join in [(partition_meet, partition_join), (lat4.meet, lat4.join)]:
        assert meet(p, q) == Partition.parse("1,2|3|4")
        assert join(p, q) == Partition.top(4)
        assert join(Partition.parse("1,2|3,4"), Partition.parse("1,4|2,3")) == Partition.top(4)
    with pytest.raises(ValueError):
        lat3.meet(a12, Partition.bottom(4))
    with pytest.raises(ValueError):
        lat3.leq(a12, Partition.top(4))


@pytest.mark.parametrize("tag,n", [("2^N", 3), ("P^N", 4), ("E^N", 2), ("E^N", 3)])
def test_meet_join_are_bounds(tag, n):
    lat = lattice_for(tag, n)
    elems = lat.elements
    for x in elems:
        for y in elems:
            m = lat.meet(x, y)
            j = lat.join(x, y)
            assert lat.leq(m, x) and lat.leq(m, y)
            assert lat.leq(x, j) and lat.leq(y, j)
            for z in elems:
                if lat.leq(z, x) and lat.leq(z, y):
                    assert lat.leq(z, m)
                if lat.leq(x, z) and lat.leq(y, z):
                    assert lat.leq(j, z)


def _object_oracle(tag):
    """(leq, meet, join, size) computed on the element objects: frozenset
    operators on 2^N, the partition algebra above on P^N, and the same on
    the images in P^(n+1) on E^N."""
    if tag == "2^N":
        return (lambda x, y: x <= y, lambda x, y: x & y, lambda x, y: x | y, len)
    if tag == "P^N":
        return (refines, partition_meet, partition_join, lambda x: x.size)
    lift, drop = to_partition, EmbeddedSubset.from_partition
    return (lambda x, y: refines(lift(x), lift(y)),
            lambda x, y: drop(partition_meet(lift(x), lift(y))),
            lambda x, y: drop(partition_join(lift(x), lift(y))),
            lambda x: x.size)


MASK_ORACLE_LATTICES = ([("2^N", n) for n in range(1, 7)]
                        + [("P^N", n) for n in range(1, 6)]
                        + [("E^N", n) for n in range(1, 5)])


@pytest.mark.parametrize("tag,n", MASK_ORACLE_LATTICES)
def test_mask_order_matches_the_object_order(tag, n):
    lat = lattice_for(tag, n)
    leq, meet, join, size = _object_oracle(tag)
    elems = lat.elements
    for x in elems:
        below = lat.atoms_below(x)
        assert len(below) == len(set(below)) == lat.size(x) == size(x)
        assert set(below) == {a for a in lat.atoms if leq(a, x)}
        for y in elems:
            assert lat.leq(x, y) == leq(x, y)
            assert lat.meet(x, y) == meet(x, y)
            assert lat.join(x, y) == join(x, y)


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 8)]
                         + [("P^N", n) for n in range(1, 7)]
                         + [("E^N", n) for n in range(1, 6)])
def test_element_order_is_a_linear_extension(tag, n):
    lat = lattice_for(tag, n)
    covers = lat._hasse()[0]
    for i in range(len(lat)):
        assert all(j > i for j in covers[i])
        assert all(j <= i for j in lat.downset_indices(i))


def _rgs_codes(n):
    """All restricted-growth codes of length n, one per set partition."""
    out = []
    code = [0] * n

    def rec(i, top):
        if i == n:
            out.append(tuple(code))
            return
        for d in range(top + 2):
            code[i] = d
            rec(i + 1, d if d > top else top)

    rec(0, -1)
    return out


def scan_tables(masks):
    """Up-sets and down-sets by testing every pair i <= j for mask inclusion."""
    ups = [[] for _ in masks]
    downs = []
    for j, m in enumerate(masks):
        below = tuple(i for i in range(j + 1) if not masks[i] & ~m)
        for i in below:
            ups[i].append(j)
        downs.append(below)
    return tuple(map(tuple, ups)), tuple(downs)


def embedded_preimage(part):
    """E^N element of a P^(n+1) partition, rebuilt through the checking
    constructors: the block holding n+1 becomes A."""
    m = part.n
    rest = []
    subset = ()
    for b in part.blocks:
        if m in b:
            subset = tuple(x for x in b if x != m)
        else:
            rest.append(b)
    if subset:
        rest.append(subset)
    return EmbeddedSubset(subset, Partition(m - 1, rest))


@lru_cache(maxsize=None)
def partition_oracle(n):
    """Elements, atoms, masks and tables of P^N, built the slow way: every
    code through from_rgs, sorted by descending code, masks from the pairs
    inside each block, tables by the pair scan."""
    parts = sorted((Partition.from_rgs(code) for code in _rgs_codes(n)),
                   key=Partition.rgs_tuple, reverse=True)
    pairs = list(combinations(range(1, n + 1), 2))
    bit = {pair: 1 << k for k, pair in enumerate(pairs)}
    masks = tuple(sum(bit[pair] for b in p.blocks for pair in combinations(b, 2))
                  for p in parts)
    atoms = [Partition.pair(n, i, j) for i, j in pairs]
    return parts, atoms, atoms, masks, scan_tables(masks)


def upset_covers(masks, ups, i):
    """The covers of element i by the walk the lattices once made: up the
    up-set in order, taking each element that adds an atom not yet placed."""
    rem = masks[-1] & ~masks[i]
    out = []
    for j in ups[i]:
        if masks[j] & rem:
            out.append(j)
            rem &= ~masks[j]
    return tuple(out)


def upset_join(masks, ups, i, j):
    """The first common upper bound in the shorter of the two up-sets."""
    both = masks[i] | masks[j]
    return next(k for k in min(ups[i], ups[j], key=len) if masks[k] & both == both)


def lattice_oracle(tag, n):
    """(elements, atoms, atoms in mask-bit order, masks, (ups, downs))."""
    if tag == "2^N":
        elems = [frozenset(c) for k in range(n + 1) for c in combinations(range(1, n + 1), k)]
        masks = tuple(sum(1 << (i - 1) for i in x) for x in elems)
        atoms = [frozenset((i,)) for i in range(1, n + 1)]
        return elems, atoms, atoms, masks, scan_tables(masks)
    if tag == "P^N":
        return partition_oracle(n)
    parts, pair_atoms, _, masks, tables = partition_oracle(n + 1)
    bottom = Partition.bottom(n)
    atoms = ([EmbeddedSubset((i,), bottom) for i in range(1, n + 1)]
             + [EmbeddedSubset((), Partition.pair(n, i, j))
                for i, j in combinations(range(1, n + 1), 2)])
    return ([embedded_preimage(p) for p in parts], atoms,
            [embedded_preimage(a) for a in pair_atoms], masks, tables)


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 9)]
                         + [("P^N", n) for n in range(1, 9)]
                         + [("E^N", n) for n in range(1, 8)])
def test_lattice_build_matches_the_slow_construction(tag, n):
    """Elements, atoms, masks, the down-sets, the atom incidence, the cover
    table and the key map equal the oracle's, entry by entry, up to the
    default cap; the covers are the ones the up-set walk finds."""
    lat = lattice_for(tag, n)
    elems, atoms, bit_atoms, masks, (ups, downs) = lattice_oracle(tag, n)
    assert list(map(repr, lat.elements)) == list(map(repr, elems))
    assert list(map(repr, lat.atoms)) == list(map(repr, atoms))
    assert list(map(repr, lat.atoms_below(lat.top))) == list(map(repr, bit_atoms))
    assert lat.masks == masks
    assert tuple(map(lat.downset_indices, range(len(lat)))) == downs
    holders = tuple(tuple(i for i, m in enumerate(masks) if m >> k & 1)
                    for k in range(len(bit_atoms)))
    assert lat._holders() == holders
    assert lat._incidence() == (
        tuple(range(len(masks))), tuple(sum(1 << i for i in held) for held in holders),
        tuple(sum(1 << len(masks) - 1 - i for i in held) for held in holders))
    assert lat._hasse()[0] == tuple(upset_covers(masks, ups, i) for i in range(len(masks)))
    assert lat.key_indices() == {lat.key(x): i for i, x in enumerate(elems)}


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 9)]
                         + [("P^N", n) for n in range(1, 9)]
                         + [("E^N", n) for n in range(1, 8)])
def test_join_index_matches_the_upset_scan(tag, n):
    """Every pair up to |L| = 203, a seeded sample of 4000 pairs above."""
    lat = lattice_for(tag, n)
    _, _, _, masks, (ups, _) = lattice_oracle(tag, n)
    size = len(lat)
    if size <= 203:
        pairs = [(i, j) for i in range(size) for j in range(size)]
    else:
        rng = random.Random(f"{tag}{n}")
        pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(4000)]
    for i, j in pairs:
        assert lat.join_index(i, j) == upset_join(masks, ups, i, j), (i, j)


def test_order_tables_share_their_index_objects():
    lat = lattice_for("P^N", 7)
    downs = lat._order_tables()
    shared = {id(i) for row in downs for i in row}
    assert len(shared) == len(lat)
    # every element but the bottom covers another; the bottom is down-set 0
    covers = lat._hasse()[0]
    assert {id(j) for row in covers for j in row} | {id(downs[0][0])} == shared
    # each getter reads its down-set off an index vector, the bottom's too,
    # and holds the down-set tuple itself (a getter of many items reduces
    # to the tuple it holds)
    gets = lat._getters()
    index = list(range(len(lat)))
    assert tuple(tuple(get(index)) for get in gets) == downs
    assert all(get.__reduce__()[1] is down for get, down in zip(gets, downs) if len(down) > 1)


@pytest.mark.parametrize("tag,n", [("2^N", 4), ("P^N", 5), ("E^N", 4)])
def test_getters_are_built_apart_from_the_order_tables(monkeypatch, tag, n):
    """Building the down-sets, as a lattice's set-up does, builds no
    getters; the first call builds them once, into the store of the
    lattice owning the masks, which is P^(n+1) for E^N."""
    kinds = {t: type(lattice_for(t, 1)) for t in ("2^N", "P^N", "E^N")}
    monkeypatch.setattr(lattice, "_build", lambda t, m: kinds[t](m))  # an uncached owner P^(n+1)
    lat = kinds[tag](n)
    lat.downset_indices(0)
    owner = lat.owner
    assert (owner is lat) == (tag != "E^N")
    assert "_getters" not in owner._store
    assert lat._getters() is lat._getters() is owner._store["_getters"]


@pytest.mark.parametrize("tag,n,strangers", [
    ("2^N", 3, [frozenset({4}), frozenset({0, 1}), "1,2", Partition.top(3)]),
    ("P^N", 3, [Partition.top(4), frozenset({1}), "1,2|3",
                EmbeddedSubset((), Partition.top(3))]),
    ("E^N", 2, [EmbeddedSubset((), Partition.top(3)), Partition.top(3), ";1,2"]),
])
def test_order_questions_reject_non_elements(tag, n, strangers):
    lat = lattice_for(tag, n)
    for stranger in strangers:
        for op in (lat.leq, lat.meet, lat.join):
            with pytest.raises(ValueError):
                op(stranger, lat.top)
            with pytest.raises(ValueError):
                op(lat.bottom, stranger)


def cover_ups(p):
    """Partitions obtained by merging one pair of blocks of p."""
    out = []
    for i, j in combinations(range(len(p.blocks)), 2):
        merged = [b for k, b in enumerate(p.blocks) if k not in (i, j)]
        merged.append(p.blocks[i] + p.blocks[j])
        out.append(Partition(p.n, merged))
    return out


def _object_covers(tag, n):
    """Covers built on the element objects: one more element on 2^N, one
    merge of two blocks on P^N and on the images in P^(n+1) on E^N."""
    if tag == "2^N":
        return lambda x: [x | {i} for i in range(1, n + 1) if i not in x]
    if tag == "P^N":
        return cover_ups
    return lambda x: [EmbeddedSubset.from_partition(q) for q in cover_ups(to_partition(x))]


@pytest.mark.parametrize("tag,n", [("2^N", n) for n in range(1, 7)]
                         + [("P^N", n) for n in range(1, 7)]
                         + [("E^N", n) for n in range(1, 6)])
def test_mask_covers_match_the_object_covers(tag, n):
    lat = lattice_for(tag, n)
    oracle = _object_covers(tag, n)
    for i, x in enumerate(lat.elements):
        found = list(lat.cover_indices(i))
        covers = [lat.elements[j] for j, _ in found]
        assert [j for j, _ in found] == sorted({j for j, _ in found})
        assert set(covers) == set(oracle(x)) and len(covers) == len(oracle(x))
        placed = set()
        for y, (_, group) in zip(covers, found):
            atoms = {a for k, a in enumerate(lat.atoms_below(lat.top)) if group >> k & 1}
            assert atoms == set(lat.atoms_below(y)) - set(lat.atoms_below(x))
            assert len(atoms) == lat.size(y) - lat.size(x) > 0
            assert not atoms & placed
            placed |= atoms
        assert placed == set(lat.atoms) - set(lat.atoms_below(x))


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_covers_and_ranks(tag, n):
    lat = lattice_for(tag, n)
    for i, x in enumerate(lat.elements):
        direct = {lat.elements[j] for j, _ in lat.cover_indices(i)}
        assert direct == {y for y in lat.elements if covers(lat, y, x)}
        for y in direct:
            assert lat.rank(y) == lat.rank(x) + 1
    assert lat.rank(lat.bottom) == 0
    top_rank = lat.rank(lat.top)
    assert top_rank == (n if tag == "2^N" else (n - 1 if tag == "P^N" else n))


@pytest.mark.parametrize("tag,n", SMALL_LATTICES)
def test_size_counts_atoms_below(tag, n):
    lat = lattice_for(tag, n)
    for x in lat.elements:
        assert lat.size(x) == sum(1 for a in lat.atoms if lat.leq(a, x))
    assert lat.size(lat.bottom) == 0
    assert lat.size(lat.top) == len(lat.atoms)


def test_rank_size_hand_values():
    assert Partition.parse("1,2|3").rank == 1
    assert Partition.parse("1,2|3").size == 1
    assert Partition.top(5).size == 10
    assert Partition.parse("1,2,3|4,5").size == 4
    e = EmbeddedSubset.parse("1,2;1,2|3")
    assert e.rank == 2 and e.size == 3
    assert EmbeddedSubset.parse(";1,2|3").rank == 1
    assert EmbeddedSubset.parse(";1,2|3").size == 1
    assert EmbeddedSubset.parse("1;1|2|3").size == 1


def test_transport_roundtrip_and_images():
    lat = lattice_for("E^N", 3)
    inner = lat.owner
    for e, p in zip(lat.elements, inner.elements):
        assert to_partition(e) == p
        assert EmbeddedSubset.from_partition(p) == e
        assert e.rank == inner.rank(p)
        assert e.size == inner.size(p)
    bot = Partition.bottom(3)
    assert to_partition(EmbeddedSubset((2,), bot)) == Partition.parse("1|2,4|3")
    assert (to_partition(EmbeddedSubset((), Partition.pair(3, 1, 3)))
            == Partition.parse("1,3|2|4"))
    # transport_solution moves shares by element index; the object images
    # must agree, both ways, on E^1..E^6 and P^2..P^7
    rng = random.Random(401)
    for n in range(1, 7):
        emb, part = lattice_for("E^N", n), lattice_for("P^N", n + 1)
        sol = Solution(emb, {a: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for a in emb.atoms})
        assert transport_solution(sol) == Solution(
            part, {to_partition(a): q for a, q in sol.shares.items()})
        sol = Solution(part, {a: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for a in part.atoms})
        assert transport_solution(sol) == Solution(
            emb, {EmbeddedSubset.from_partition(a): q for a, q in sol.shares.items()})


def test_embedded_lower_intervals_match_plain_partitions():
    lat = lattice_for("E^N", 3)
    plain = lattice_for("P^N", 3)
    for p in plain.elements:
        e = EmbeddedSubset((), p)
        assert (len(lat.downset_indices(lat.index(e)))
                == len(plain.downset_indices(plain.index(p))))


CHAIN_TOTALS = {("P^N", 3): 3, ("P^N", 4): 18, ("P^N", 5): 180,
                ("2^N", 3): 6, ("2^N", 4): 24,
                ("E^N", 2): 3, ("E^N", 3): 18, ("E^N", 4): 180}


def test_chain_totals_frozen():
    for (tag, n), total in CHAIN_TOTALS.items():
        assert lattice_for(tag, n).chain_count_total() == total


@pytest.mark.parametrize("tag,n", list(CHAIN_TOTALS))
def test_chain_enumeration_is_valid(tag, n):
    lat = lattice_for(tag, n)
    chains = lat.maximal_chains()
    assert len(chains) == CHAIN_TOTALS[(tag, n)]
    for chain in chains:
        assert chain[0] == lat.bottom and chain[-1] == lat.top
        for k, x in enumerate(chain):
            assert lat.rank(x) == k
        for x, y in zip(chain, chain[1:]):
            assert covers(lat, y, x)


@pytest.mark.parametrize("tag,n", list(CHAIN_TOTALS))
def test_chain_through_counts_match_enumeration(tag, n):
    lat = lattice_for(tag, n)
    chains = lat.maximal_chains()
    seen = {}
    for chain in chains:
        for x in chain:
            seen[x] = seen.get(x, 0) + 1
    for x in lat.elements:
        assert chain_count_through(lat, x) == seen[x], lat.key(x)
    # every chain passes each rank level exactly once
    top_rank = lat.rank(lat.top)
    for r in range(top_rank + 1):
        level = [x for x in lat.elements if lat.rank(x) == r]
        assert sum(seen[x] for x in level) == len(chains)


def test_chain_through_hand_values():
    lat4 = lattice_for("P^N", 4)
    assert chain_count_through(lat4, Partition.parse("1,2|3,4")) == 2
    assert chain_count_through(lat4, Partition.parse("1,2,3|4")) == 3
    assert chain_count_through(lat4, Partition.bottom(4)) == 18
    assert chain_count_through(lat4, Partition.top(4)) == 18
    lat3 = lattice_for("P^N", 3)
    assert chain_count_through(lat3, Partition.pair(3, 1, 2)) == 1


@pytest.mark.parametrize("tag,n", list(CHAIN_TOTALS))
def test_chain_pair_ratios_match_enumeration(tag, n):
    """below[i] * above[j] chains cross the cover edge i -> j, and each
    atom is added on one step of every chain."""
    lat = lattice_for(tag, n)
    _, below, above = lat._hasse()
    chains = lat.maximal_chains()
    steps = Counter(step for chain in chains for step in zip(chain, chain[1:]))
    for a in lat.atoms:
        crossing = 0
        for x in lat.elements:
            if lat.leq(a, x):
                continue
            target = lat.join(x, a)
            count = below[lat.index(x)] * above[lat.index(target)]
            assert count == steps[x, target], (lat.key(x), lat.key(a))
            crossing += count
        assert crossing == above[0] == len(chains)


def test_chain_pair_hand_values():
    """The share of maximal chains through one covering step x -> y."""
    def share(lat, x, y):
        _, below, above = lat._hasse()
        return Fraction(below[lat.index(x)] * above[lat.index(y)], lat.chain_count_total())

    lat3 = lattice_for("P^N", 3)
    assert share(lat3, Partition.bottom(3), Partition.pair(3, 1, 2)) == Fraction(1, 3)
    assert share(lat3, Partition.pair(3, 1, 3), Partition.top(3)) == Fraction(1, 3)
    lat4 = lattice_for("P^N", 4)
    assert share(lat4, Partition.pair(4, 3, 4), Partition.parse("1,2|3,4")) == Fraction(1, 18)
    assert share(lat4, Partition.pair(4, 3, 4), Partition.parse("1,3,4|2")) == Fraction(1, 18)


@pytest.mark.parametrize("tag,n", [(tag, n) for tag in ("2^N", "P^N")
                                   for n in range(1, DEFAULT_MAX_N + 1)]
                         + [("E^N", n) for n in range(1, DEFAULT_MAX_N)])
def test_chain_counts_match_the_closed_forms(tag, n):
    lat = lattice_for(tag, n)
    _, below, above = lat._hasse()
    assert below == tuple(chains_below_closed(lat, x) for x in lat.elements)
    assert above == tuple(chains_above_closed(lat, x) for x in lat.elements)
    assert lat.chain_count_total() == below[-1] == above[0]


@pytest.mark.parametrize("tag,n", list(CHAIN_TOTALS))
def test_covering_steps_cross_size_many_atoms(tag, n):
    lat = lattice_for(tag, n)
    for chain in lat.maximal_chains():
        for x, y in zip(chain, chain[1:]):
            crossing = [a for a in lat.atoms if lat.leq(a, y) and not lat.leq(a, x)]
            assert len(crossing) == lat.size(y) - lat.size(x)
            for a in crossing:
                assert lat.join(x, a) == y


def test_class_vectors_and_counts():
    assert Partition.parse("1,2|3").class_vector() == (1, 1, 0)
    assert class_count((1, 1, 0)) == 3
    assert class_count((0, 2, 0, 0)) == 3
    assert class_count((2, 1, 0, 0)) == 6
    assert class_key((1, 1, 0)) == "2,1"
    assert parse_class_key("2,1", 3) == (1, 1, 0)
    with pytest.raises(ValueError):
        parse_class_key("2,2", 3)
    for n in range(1, 9):
        assert sum(class_count(c) for c in class_vectors(n)) == bell(n)
    for n in range(1, 6):
        tally = {}
        for p in lattice_for("P^N", n).elements:
            cv = p.class_vector()
            tally[cv] = tally.get(cv, 0) + 1
        assert tally == {c: class_count(c) for c in class_vectors(n)}


def test_embedded_classes_follow_the_image_partition():
    lat = lattice_for("E^N", 2)
    assert lat.class_of(EmbeddedSubset.parse(";1,2")) == (1, 1, 0)
    assert lat.class_of(EmbeddedSubset.parse("1;1|2")) == (1, 1, 0)
    assert lat.class_of(lat.top) == (0, 0, 1)
    counts = {}
    for x in lat.elements:
        counts[lat.class_of(x)] = counts.get(lat.class_of(x), 0) + 1
    assert counts == {c: class_count(c) for c in class_vectors(3)}


def test_size_caps():
    with pytest.raises(SizeLimitError):
        lattice_for("P^N", 9)
    with pytest.raises(SizeLimitError):
        lattice_for("E^N", 8)
    with pytest.raises(SizeLimitError):
        lattice_for("2^N", 9)
    with pytest.raises(SizeLimitError):
        lattice_for("P^N", 4, max_n=3)
    assert len(lattice_for("P^N", 4, max_n=4)) == 15
    with pytest.raises(ValueError):
        lattice_for("Q^N", 3)
    with pytest.raises(ValueError):
        lattice_for("P^N", 0)
    # True and 1 are one key to the lattice cache: a lattice built for
    # n = True would report n = true on every later n = 1 game
    for tag in ("2^N", "P^N", "E^N"):
        for flag in (True, False):
            with pytest.raises(ValueError, match="positive integer"):
                lattice_for(tag, flag)
    assert type(lattice_for("2^N", 1).n) is int


def test_cap_env_variable(monkeypatch):
    monkeypatch.setenv(ENV_MAX_N, "3")
    assert ground_cap() == 3
    with pytest.raises(SizeLimitError):
        lattice_for("P^N", 4)
    assert len(lattice_for("P^N", 3)) == 5
    monkeypatch.setenv(ENV_MAX_N, "four")
    with pytest.raises(ValueError):
        ground_cap()
    monkeypatch.delenv(ENV_MAX_N)
    assert ground_cap() == 8
    assert ground_cap(12) == 12


def test_chain_enumeration_cap():
    with pytest.raises(SizeLimitError) as err:
        lattice_for("P^N", 6).maximal_chains()
    assert str(CHAIN_CAP) in str(err.value)
    with pytest.raises(SizeLimitError):
        lattice_for("E^N", 5).maximal_chains()
    # counting still works past the listing cap
    assert lattice_for("P^N", 6).chain_count_total() == 2700
    assert lattice_for("E^N", 5).chain_count_total() == 2700


def test_element_membership_errors():
    lat = lattice_for("P^N", 3)
    with pytest.raises(ValueError):
        lat.index(Partition.bottom(4))
    with pytest.raises(ValueError):
        lat.index("1|2|3")
    assert Partition.bottom(3) in lat
    assert lat.index(Partition.top(3)) == len(lat) - 1


def _random_partition(rng, n):
    code = [0]
    for _ in range(n - 1):
        code.append(rng.randint(0, max(code) + 1))
    return Partition.from_rgs(code)


def test_random_partition_consistency():
    rng = random.Random(20260822)
    for _ in range(200):
        n = rng.randint(2, 7)
        p = _random_partition(rng, n)
        q = _random_partition(rng, n)
        m, j = partition_meet(p, q), partition_join(p, q)
        assert refines(m, p) and refines(m, q)
        assert refines(p, j) and refines(q, j)
        z = _random_partition(rng, n)
        if refines(z, p) and refines(z, q):
            assert refines(z, m)
        if refines(p, z) and refines(q, z):
            assert refines(j, z)
        assert Partition.parse(p.label()) == p
        assert Partition.parse(p.rgs()) == p
        assert partition_meet(p, p) == p and partition_join(p, p) == p
        assert (refines(p, q) and refines(q, p)) == (p == q)
