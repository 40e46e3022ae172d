"""Lattice games, Mobius inversion, zeta expansion, and JSON payloads.

A game assigns an exact rational to every lattice element.  Its Mobius
coefficients are the unique weights with f(y) = sum of mu(x) over x <= y;
they are recovered by the usual top-down recursion and inverted back by
zeta expansion.  All arithmetic stays in fractions.Fraction.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .lattice import LATTICE_TAGS, lattice_for

_RATIONAL = re.compile(r"[+-]?\d+(?:/\d+)?")


def parse_fraction(value):
    """Exact rational from "p/q" or "p" strings; ints and Fractions pass through.

    Floats and decimal notation are rejected on purpose: every value in
    this package is exact, and "p/q" keeps it that way.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL.fullmatch(text):
            try:
                return Fraction(text)
            except ZeroDivisionError:
                raise ValueError(f"not a rational: {value!r}") from None
        raise ValueError(f"not a rational: {value!r}")
    raise ValueError(f"not a rational: {value!r}")


def format_fraction(value):
    return str(Fraction(value))


class _TableOnLattice:
    """Shared plumbing for anything that maps every element to a rational."""

    _field = "values"

    def __init__(self, lattice, values, fill=None):
        for k in values:
            try:
                ok = k in lattice
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{k!r} is not an element of {lattice.describe()}")
        table = {}
        for x in lattice.elements:
            if x in values:
                table[x] = parse_fraction(values[x])
            elif fill is not None:
                table[x] = fill
            else:
                raise ValueError(f"missing value for {lattice.key(x)}")
        self.lattice = lattice
        setattr(self, self._field, table)

    def _table(self):
        return getattr(self, self._field)

    def value(self, x):
        try:
            return self._table()[x]
        except (KeyError, TypeError):
            raise ValueError(f"{x!r} is not an element of {self.lattice.describe()}") from None

    __getitem__ = value

    def __eq__(self, other):
        return (type(other) is type(self)
                and other.lattice is self.lattice
                and other._table() == self._table())

    def __repr__(self):
        lat = self.lattice
        return f"{type(self).__name__}({lat.describe()}, {len(self._table())} entries)"


class LatticeGame(_TableOnLattice):
    """A rational-valued function on every element of one lattice."""

    _field = "values"

    @property
    def bottom_value(self):
        return self.values[self.lattice.bottom]

    @property
    def top_value(self):
        return self.values[self.lattice.top]

    def normalize_bottom(self):
        """Shift so the bottom sits at zero; returns (game, shift removed)."""
        shift = self.bottom_value
        if shift == 0:
            return self, Fraction(0)
        return LatticeGame(self.lattice,
                           {x: q - shift for x, q in self.values.items()}), shift

    def __add__(self, other):
        if not isinstance(other, LatticeGame) or other.lattice is not self.lattice:
            return NotImplemented
        return LatticeGame(self.lattice,
                           {x: q + other.values[x] for x, q in self.values.items()})

    def __sub__(self, other):
        if not isinstance(other, LatticeGame) or other.lattice is not self.lattice:
            return NotImplemented
        return LatticeGame(self.lattice,
                           {x: q - other.values[x] for x, q in self.values.items()})

    def __mul__(self, scalar):
        c = parse_fraction(scalar)
        return LatticeGame(self.lattice, {x: c * q for x, q in self.values.items()})

    __rmul__ = __mul__

    def payload(self):
        lat = self.lattice
        return {"lattice": lat.tag, "n": lat.n,
                "values": {lat.key(x): format_fraction(self.values[x])
                           for x in lat.elements}}

    @classmethod
    def from_payload(cls, payload, max_n=None):
        """Read {"lattice", "n", "values": {element key: "p/q"}}; strict totality."""
        lat = _lattice_from_payload(payload, max_n)
        raw = payload.get("values")
        if not isinstance(raw, dict):
            raise ValueError("payload needs a \"values\" object")
        values = {}
        for key, text in raw.items():
            x = lat.parse_element(key)
            if x in values:
                raise ValueError(f"duplicate value for element {lat.key(x)}")
            values[x] = parse_fraction(text)
        return cls(lat, values)


class MobiusCoefficients(_TableOnLattice):
    """Mobius coefficients on a lattice; missing entries count as zero."""

    _field = "coefficients"

    def __init__(self, lattice, coefficients):
        super().__init__(lattice, coefficients, fill=Fraction(0))

    def support(self):
        return tuple(x for x, q in self.coefficients.items() if q != 0)

    def below(self, x):
        """The mass on the down-set of x; every other coefficient is zero."""
        lat = self.lattice
        elems = lat.elements
        return MobiusCoefficients(lat, {elems[j]: self.coefficients[elems[j]]
                                        for j in lat.downset_indices(lat.index(x))})

    def zeta_expand(self):
        return zeta_expand(self)


def mobius(game):
    """Mobius coefficients of a game, by recursion in element order (a
    linear extension, so every element comes after its down-set)."""
    lat = game.lattice
    mu = []
    for i, x in enumerate(lat.elements):
        acc = game.values[x]
        for j in lat.downset_indices(i):
            if j != i:
                acc -= mu[j]
        mu.append(acc)
    return MobiusCoefficients(lat, dict(zip(lat.elements, mu)))


def zeta_expand(coeffs):
    """The game with value sum of coefficients over the down-set of each element."""
    lat = coeffs.lattice
    table = coeffs.coefficients
    values = {}
    for i, y in enumerate(lat.elements):
        values[y] = sum((table[lat.elements[j]] for j in lat.downset_indices(i)),
                        Fraction(0))
    return LatticeGame(lat, values)


def zeta_game(lattice, x):
    """Indicator of the up-set of x: worth 1 once cooperation reaches x."""
    ups = set(lattice.upset_indices(lattice.index(x)))
    return LatticeGame(lattice,
                       {y: Fraction(1 if j in ups else 0)
                        for j, y in enumerate(lattice.elements)})


def _lattice_from_payload(payload, max_n=None):
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    tag = payload.get("lattice")
    if tag not in LATTICE_TAGS:
        raise ValueError(f"unknown lattice tag {tag!r}; expected one of {LATTICE_TAGS}")
    n = payload.get("n")
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f"\"n\" must be an integer, got {n!r}")
    return lattice_for(tag, n, max_n)
