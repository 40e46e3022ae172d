"""Game constructions and shape predicates.

Additive families turn a subset game v into a partition game (sum of v
over blocks) or an embedded-subset game (same sum plus v on the
distinguished block, which therefore enters twice).  Both are one lift
on the integer view, ``_lift``, which separability also checks its
candidate set function through.  Symmetric games are stored per
relabeling class.  Predicates return a witness on failure, not just
False.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import (
    LATTICE_TAGS,
    VerificationError,
    class_key,
    class_vectors,
    lattice_for,
    parse_class_key,
    parse_int,
)
from .transform import (
    LatticeGame,
    _known_keys,
    format_fraction,
    mobius,
    parse_fraction,
)


class PredicateReport:
    """Boolean verdict plus a witness when the predicate fails."""

    def __init__(self, holds, witness=None):
        self.holds = bool(holds)
        self.witness = witness

    def __bool__(self):
        return self.holds

    def __repr__(self):
        if self.holds:
            return "PredicateReport(True)"
        return f"PredicateReport(False, witness={self.witness!r})"


def _require_subset_game(game, who):
    if game.lattice.tag != "2^N":
        raise ValueError(f"{who} starts from a subset game, got {game.lattice.tag}")


def additive_global(v):
    """Partition game f(P) = sum of v over the blocks of P, on a P^n built
    past any cap v's lattice was built past (both have ground size n)."""
    _require_subset_game(v, "additive_global")
    return _lift(v, lattice_for("P^N", v.lattice.n, v.lattice.n))


def additive_pff(v):
    """Embedded-subset game h(A, P) = v(A) + sum of v over the blocks of P.

    The distinguished block is counted once as A and once as a block of P.
    E^n needs ground size n+1, one more than v's lattice, so the cap holds.
    """
    _require_subset_game(v, "additive_pff")
    return _lift(v, lattice_for("E^N", v.lattice.n))


def _lift(v, lat):
    """The blockwise sum of the subset game v on lat, P^n or E^n of v's n:
    v's ints summed over each element's blocks, plus v(A) on E^n."""
    ints, d = v._ints
    at = {tuple(sorted(x)): q for x, q in zip(v.lattice.elements, ints)}.__getitem__
    sums = ([sum(map(at, p.blocks)) for p in lat.elements] if lat.tag == "P^N" else
            [at(e.subset) + sum(map(at, e.partition.blocks)) for e in lat.elements])
    return LatticeGame._from_ints(lat, sums, d)


def _expected_classes(tag, n):
    if tag == "2^N":
        return list(range(n + 1))
    if tag == "P^N":
        return class_vectors(n)
    return class_vectors(n + 1)


def _class_label(tag, cls):
    return str(cls) if tag == "2^N" else class_key(cls)


class SymmetricGame:
    """One value per relabeling class of lattice elements.

    Classes are subset cardinalities on 2^N, block-size class vectors on
    P^N, and class vectors of the image partition in P^(n+1) on E^N (the
    granularity at which relabeling really acts on embedded subsets).
    """

    def __init__(self, tag, n, class_values):
        if tag not in LATTICE_TAGS:
            raise ValueError(f"unknown lattice tag {tag!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        expected = _expected_classes(tag, n)
        table = {}
        for cls in expected:
            if cls not in class_values:
                raise ValueError(f"missing value for class {_class_label(tag, cls)}")
            table[cls] = parse_fraction(class_values[cls])
        if len(class_values) != len(table):
            stray = next(k for k in class_values if k not in table)
            raise ValueError(f"{stray!r} is not a class of {tag} with n={n}")
        self.tag = tag
        self.n = n
        self.class_values = table

    def value(self, cls):
        try:
            return self.class_values[cls]
        except (KeyError, TypeError):
            raise ValueError(f"{cls!r} is not a class of {self.tag} with n={self.n}") from None

    def __eq__(self, other):
        return (isinstance(other, SymmetricGame) and other.tag == self.tag
                and other.n == self.n and other.class_values == self.class_values)

    def __repr__(self):
        return f"SymmetricGame({self.tag!r}, n={self.n}, {len(self.class_values)} classes)"

    def expand(self, max_n=None):
        lat = lattice_for(self.tag, self.n, max_n)
        return LatticeGame(lat, {x: self.class_values[lat.class_of(x)]
                                 for x in lat.elements})

    def payload(self):
        return {"lattice": self.tag, "n": self.n,
                "classValues": {_class_label(self.tag, cls): format_fraction(q)
                                for cls, q in self.class_values.items()}}

    @classmethod
    def from_payload(cls, payload):
        if not isinstance(payload, dict):
            raise ValueError("payload must be a JSON object")
        _known_keys(payload, ("lattice", "n", "classValues"), "symmetric game")
        tag = payload.get("lattice")
        n = payload.get("n")
        if tag not in LATTICE_TAGS:
            raise ValueError(f"unknown lattice tag {tag!r}")
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ValueError(f"\"n\" must be a positive integer, got {n!r}")
        raw = payload.get("classValues")
        if not isinstance(raw, dict):
            raise ValueError("payload needs a \"classValues\" object")
        ground = n + 1 if tag == "E^N" else n
        values = {}
        for key, text in raw.items():
            if not isinstance(key, str):
                raise ValueError(f"bad class key {key!r}")
            if tag == "2^N":
                try:
                    k = parse_int(key)
                except ValueError:
                    raise ValueError(f"bad class key {key!r}") from None
                if not 0 <= k <= n:
                    raise ValueError(f"class key {key!r} out of range for n={n}")
                ckey = k
            else:
                ckey = parse_class_key(key, ground)
            if ckey in values:
                raise ValueError(f"duplicate class key {key!r}")
            values[ckey] = text
        return cls(tag, n, values)


def is_symmetric(game):
    """The per-class table when the game is constant on classes, else None."""
    lat = game.lattice
    ints, d = game._ints
    seen = {}
    for x, q in zip(lat.elements, ints):
        cls = lat.class_of(x)
        if cls in seen:
            if seen[cls] != q:
                return None
        else:
            seen[cls] = q
    return SymmetricGame(lat.tag, lat.n, {cls: Fraction(q, d) for cls, q in seen.items()})


def clustering_restrict(game, cluster):
    """Freeze cooperation beyond a chosen element: y is worth f(y ^ cluster).

    z <= y and z <= cluster exactly when z <= y ^ cluster, so the Mobius
    mass off the cluster's down-set is dropped; the top value is f(cluster).
    The restricted game holds only its integer view.
    """
    lat = game.lattice
    c = lat.index(cluster)
    vals, d = game._ints
    restricted = [vals[lat.meet_index(i, c)] for i in range(len(lat))]
    if restricted[-1] != vals[c]:
        raise VerificationError("restricted game does not end at the cluster's value")
    return LatticeGame._from_ints(lat, restricted, d)


def is_supermodular(game):
    """f(x v y) + f(x ^ y) >= f(x) + f(y) for all pairs; witness on failure.

    Quadratic in the lattice size, meant for moderate n.  Comparable
    pairs are skipped: for x <= y the join is y and the meet is x, so
    they hold with equality.  In a linear extension a later element is
    comparable to an earlier one exactly when it holds all its atoms.
    """
    lat = game.lattice
    vals, _ = game._ints
    masks = lat.masks
    for i, below in enumerate(masks):
        for j in range(i + 1, len(masks)):
            if below & ~masks[j] and (vals[lat.join_index(i, j)] + vals[lat.meet_index(i, j)]
                                      < vals[i] + vals[j]):
                return PredicateReport(False, (lat.elements[i], lat.elements[j]))
    return PredicateReport(True)


def is_totally_positive(game):
    """All Mobius coefficients nonnegative; witness = first negative element.
    The denominator is positive, so the signs are those of the ints."""
    for x, q in zip(game.lattice.elements, mobius(game)._ints[0]):
        if q < 0:
            return PredicateReport(False, x)
    return PredicateReport(True)


def is_monotone(game):
    """Values never decrease along the order, checked on the cover edges;
    witness = the first pair x <= y in element order with f(y) < f(x),
    compared on the integer view over its positive denominator."""
    lat = game.lattice
    masks = lat.masks
    vals, _ = game._ints
    least = list(vals)  # the least value at or above each element
    for i, row in reversed(tuple(enumerate(lat._hasse()[0]))):
        least[i] = min([vals[i]] + [least[j] for j in row])
    for i, q in enumerate(vals):
        if least[i] < q:
            j = next(j for j in range(i, len(vals)) if vals[j] < q and not masks[i] & ~masks[j])
            return PredicateReport(False, (lat.elements[i], lat.elements[j]))
    return PredicateReport(True)
