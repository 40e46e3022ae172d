"""Lattice games, Mobius inversion, zeta expansion, and JSON payloads.

A game assigns an exact rational to every lattice element.  Its Mobius
coefficients are the unique weights with f(y) = sum of mu(x) over x <= y;
they are recovered by the usual top-down recursion and inverted back by
zeta expansion.

A table stores one of two forms of its rationals, in element-index
order, and builds the other on first use:

- the integer view (ints, d): the values as ints over one common
  denominator, canonical (d > 0 and gcd(d, *ints) == 1), so two tables
  hold the same rationals exactly when their views are equal;
- the Fraction tuple.

A table the package derives holds only its integer view: the game
``normalize_bottom`` returns, the Mobius coefficients ``mobius`` returns,
and the games ``clustering_restrict`` and ``graph_restrict`` return.
Mobius inversion, the solvers, the predicates and the core LP read the
view, so a game is scaled once and a solve builds no Fraction table in
between.  The Fraction tuple of such a table is built on the first call
of ``vector()``, ``value``/``[]``, the ``values``/``coefficients`` dicts
or ``payload()``; ``top_value`` and ``bottom_value`` read whichever form
the table holds.  Every value a table hands out is an exact Fraction.

Parsing a payload, zeta expansion and game arithmetic still build
Fraction tables, whose view is then built on first use.  Moving them to
ints waits on a benchmark whose peak-memory reading does not grow with
the number of requests completed (ROADMAP item 1).
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd, lcm

from .lattice import LATTICE_TAGS, SizeLimitError, lattice_for

_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_fraction(value):
    """Exact rational from "p/q" or "p" strings; ints and Fractions pass through.

    Floats and decimal notation are rejected on purpose: every value in
    this package is exact, and "p/q" keeps it that way.  A numerator or
    denominator longer than Python's int-string limit raises
    SizeLimitError.
    """
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip())
        if match:
            num, den = match.groups()
            den = _parse_int(den or "1")
            if den:
                return Fraction(_parse_int(num), den)
    elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"not a rational: {value!r}")


def format_fraction(value):
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:  # p or q is longer than Python's int-string limit
        raise _too_many_digits() from None


def _parse_int(text):
    """int(text) for a signed run of digits, as in "p/q" or a JSON number."""
    try:
        return int(text)
    except ValueError:  # the only one int() raises on such text
        raise _too_many_digits() from None


def _too_many_digits():
    return SizeLimitError(f"a number has more than {sys.get_int_max_str_digits()} digits, "
                          f"Python's limit for converting an int to or from a string")


class _TableOnLattice:
    """Shared plumbing for anything that maps every element to a rational.

    A table holds its Fraction tuple, its canonical integer view, or
    both; whichever is missing is built on first use, as is the dict
    keyed by element (``values`` of a game, ``coefficients`` of a Mobius
    table).
    """

    def __init__(self, lattice, values, fill=None):
        for k in values:
            try:
                ok = k in lattice
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{k!r} is not an element of {lattice.describe()}")
        vector = []
        for x in lattice.elements:
            if x in values:
                vector.append(parse_fraction(values[x]))
            elif fill is not None:
                vector.append(fill)
            else:
                raise ValueError(f"missing value for {lattice.key(x)}")
        self._set(lattice, tuple(vector), None)

    @classmethod
    def _from_vector(cls, lattice, vector):
        """A table from Fractions this package computed, already in
        element-index order; nothing is checked or parsed."""
        table = cls.__new__(cls)
        table._set(lattice, tuple(vector), None)
        return table

    @classmethod
    def _from_ints(cls, lattice, ints, d):
        """A table holding only the integer view ints / d (d > 0) that
        this package computed, in element-index order, reduced to
        canonical form; no Fraction is built."""
        table = cls.__new__(cls)
        table._set(lattice, None, _canonical(ints, d))
        return table

    def _set(self, lattice, vector, ints):
        self.lattice = lattice
        self._vector = vector
        self._view = None
        self._ints = ints

    def _integers(self):
        """(ints, d), canonical, with ints[i] / d == vector()[i]; built once."""
        if self._ints is None:
            self._ints = _scaled(self._vector)
        return self._ints

    def _end(self, i):
        """Entry i (0 or -1) in whichever form the table holds."""
        if self._vector is None:
            ints, d = self._ints
            return Fraction(ints[i], d)
        return self._vector[i]

    def _table(self):
        if self._view is None:
            self._view = dict(zip(self.lattice.elements, self.vector()))
        return self._view

    def vector(self):
        """The rationals in element-index order, as Fractions."""
        if self._vector is None:
            ints, d = self._ints
            self._vector = tuple(Fraction(q, d) for q in ints)
        return self._vector

    def value(self, x):
        return self.vector()[self.lattice.index(x)]

    __getitem__ = value

    def __eq__(self, other):
        return (type(other) is type(self)
                and other.lattice is self.lattice
                and other._integers() == self._integers())

    def __repr__(self):
        lat = self.lattice
        return f"{type(self).__name__}({lat.describe()}, {len(lat)} entries)"


class LatticeGame(_TableOnLattice):
    """A rational-valued function on every element of one lattice."""

    values = property(_TableOnLattice._table, doc="{element: value}")

    @property
    def bottom_value(self):
        return self._end(0)

    @property
    def top_value(self):
        return self._end(-1)

    def normalize_bottom(self):
        """Shift so the bottom sits at zero; returns (game, shift removed).

        The shifted game holds only its integer view."""
        ints, d = self._integers()
        low = ints[0]
        if low == 0:
            return self, Fraction(0)
        return LatticeGame._from_ints(self.lattice, [q - low for q in ints], d), Fraction(low, d)

    def __add__(self, other):
        if not isinstance(other, LatticeGame) or other.lattice is not self.lattice:
            return NotImplemented
        return LatticeGame._from_vector(self.lattice,
                                        [p + q for p, q in zip(self.vector(), other.vector())])

    def __sub__(self, other):
        if not isinstance(other, LatticeGame) or other.lattice is not self.lattice:
            return NotImplemented
        return LatticeGame._from_vector(self.lattice,
                                        [p - q for p, q in zip(self.vector(), other.vector())])

    def __mul__(self, scalar):
        c = parse_fraction(scalar)
        return LatticeGame._from_vector(self.lattice, [c * q for q in self.vector()])

    __rmul__ = __mul__

    def payload(self):
        lat = self.lattice
        return {"lattice": lat.tag, "n": lat.n,
                "values": {lat.key(x): format_fraction(q)
                           for x, q in zip(lat.elements, self.vector())}}

    @classmethod
    def from_payload(cls, payload, max_n=None):
        """Read {"lattice", "n", "values": {element key: "p/q"}}; strict totality.

        A canonical key is found in the lattice's key table; any other
        spelling is parsed.
        """
        if not isinstance(payload, dict):
            raise ValueError("payload must be a JSON object")
        _known_keys(payload, ("lattice", "n", "values"), "game")
        tag = payload.get("lattice")
        if tag not in LATTICE_TAGS:
            raise ValueError(f"unknown lattice tag {tag!r}; expected one of {LATTICE_TAGS}")
        n = payload.get("n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"\"n\" must be an integer, got {n!r}")
        lat = lattice_for(tag, n, max_n)
        raw = payload.get("values")
        if not isinstance(raw, dict):
            raise ValueError("payload needs a \"values\" object")
        keys = lat.key_indices()
        vector = [None] * len(lat)
        for key, text in raw.items():
            i = keys.get(key)
            if i is None:
                i = lat.index(lat.parse_element(key))
            if vector[i] is not None:
                raise ValueError(f"duplicate value for element {lat.key(lat.elements[i])}")
            vector[i] = parse_fraction(text)
        if len(raw) != len(vector):  # keys are distinct elements, so some are missing
            i = next(i for i, q in enumerate(vector) if q is None)
            raise ValueError(f"missing value for {lat.key(lat.elements[i])}")
        return cls._from_vector(lat, vector)


class MobiusCoefficients(_TableOnLattice):
    """Mobius coefficients on a lattice; missing entries count as zero."""

    coefficients = property(_TableOnLattice._table, doc="{element: coefficient}")

    def __init__(self, lattice, coefficients):
        super().__init__(lattice, coefficients, fill=Fraction(0))

    def support(self):
        return tuple(x for x, q in zip(self.lattice.elements, self._integers()[0]) if q)

    def zeta_expand(self):
        return zeta_expand(self)


def _scaled(vector):
    """(ints, d): the rationals as integers over d, the lcm of their
    denominators.  The view is canonical: a prime's highest power in d
    divides some denominator q, whose int then lacks that prime."""
    d = lcm(*(q.denominator for q in vector))
    return [q.numerator * (d // q.denominator) for q in vector], d


def _canonical(ints, d):
    """ints / d (d > 0) reduced to the canonical view: gcd(d, *ints) == 1."""
    g = gcd(d, *ints)
    if g == 1:
        return ints, d
    return [q // g for q in ints], d // g


def mobius(game):
    """Mobius coefficients of a game, by recursion in element order (a
    linear extension, so every element comes after its down-set), on the
    game's integer view.  The result holds only its ints, over the same
    d: the recursion and zeta expansion are integer maps inverse to each
    other, so the ints keep the game's gcd of 1 with d."""
    lat = game.lattice
    ints, d = game._integers()
    mu = [0] * len(ints)
    entry = mu.__getitem__
    for i, v in enumerate(ints):
        # the down-set of i ends with i itself, whose entry is still 0
        mu[i] = v - sum(map(entry, lat.downset_indices(i)))
    return MobiusCoefficients._from_ints(lat, mu, d)


def zeta_expand(coeffs):
    """The game with value sum of coefficients over the down-set of each element."""
    lat = coeffs.lattice
    entry = coeffs.vector().__getitem__
    return LatticeGame._from_vector(lat, [sum(map(entry, lat.downset_indices(i)), Fraction(0))
                                          for i in range(len(lat))])


def zeta_game(lattice, x):
    """Indicator of the up-set of x: worth 1 once cooperation reaches x,
    on every element whose mask holds the mask of x."""
    below = lattice.masks[lattice.index(x)]
    return LatticeGame._from_vector(
        lattice, [Fraction(1 if m & below == below else 0) for m in lattice.masks])


def _known_keys(obj, known, where):
    """Refuse a key outside known: a misspelt one would read as absent."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}; expected one of {list(known)}")
