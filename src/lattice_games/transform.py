"""Lattice games, Mobius inversion, zeta expansion, and JSON payloads.

A game assigns an exact rational to every lattice element.  Its Mobius
coefficients are the unique weights with f(y) = sum of mu(x) over x <= y;
they are recovered by the usual top-down recursion and inverted back by
zeta expansion.

Games, Mobius tables, solutions and node shares are one class,
``_IntView``, each storing one form of its rationals: the integer view
(ints, d), the values as ints over one common denominator, canonical
(d > 0 and gcd(d, *ints) == 1), in a storage order over an owner (a
lattice, or the node count n).  Two views of one class and owner hold
the same rationals exactly when their ints are equal.

Every value that enters the package is read once into a numerator and
a denominator, by the grammar ``parse_fraction`` also uses, and a table
takes its view over the lcm of the denominators with no Fraction built.
A game payload whose keys are the lattice's canonical keys and whose
values are all plain ("p/q" or "p" in JSON's number grammar with nothing
around them, or JSON ints) is read in one pass: the values gathered in
element order through the key table; joined into one text, a whole
number p as "p/1", and checked by one ``translate`` and one search; one
``json.loads`` of that text, each "/" read as ",", for every p and q in
one flat list, the numerators at the even places and the denominators at
the odd; and one lcm over the distinct denominators.  The ints come out
in element order, so nothing is placed.  Any other payload is
read item by item, and that loop is the only one that words a refusal,
of a number past Python's int-string limit too.

Mobius inversion and zeta expansion read each down-set through one
``operator.itemgetter`` per element, the lattice's getters table:
``mobius`` takes a value less the sum of its down-set's coefficients
found so far, ``zeta_expand`` sums its down-set's coefficients, one
getter call each.

Mobius inversion, zeta expansion, game arithmetic, the derived games,
the solvers, the predicates and the core LP hand each other views.
Fractions exist only as the view's cache, built on the first call of
``vector()``, ``value``/``[]`` or a dict view; ``top_value`` and
``bottom_value`` read the ints.  Every value a view hands out is an
exact Fraction.  ``_format_ratio`` prints a rational (p, d) as
``str(Fraction(p, d))`` would, after one gcd; ``format_fraction`` and
the view's one renderer, ``_render``, print through it, and every
payload and CSV row prints through ``_render``.

Zeta expansion still sums Fractions, read off its Mobius table's
``vector()`` by the getters, before it takes the view of the sums.
Integer sums run the netshare benchmark about 4.4 times as fast, and so
read 58-75% more peak memory there, over that metric's 10% bound, until
the benchmark's peak-memory reading stops growing with the number of
requests completed (ROADMAP item 1).
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, attrgetter, contains, mul

from .lattice import INTEGER, LATTICE_TAGS, SizeLimitError, lattice_for

_RATIONAL = re.compile(rf"({INTEGER.pattern})(?:/([0-9]+))?")
# Deletes the characters of the plain values, "p/q" or "p" in JSON's
# number grammar with nothing around them, and of the "," that joins them
_DROP_PLAIN = str.maketrans("", "", "-0123456789/,")
# Two "/" in one value
_TWO_SLASHES = re.compile(r"/[^,]*/")


def parse_fraction(value):
    """Exact rational from "p/q" or "p" strings; ints and Fractions pass through.

    Floats and decimal notation are rejected on purpose: every value in
    this package is exact, and "p/q" keeps it that way.  A numerator or
    denominator longer than Python's int-string limit raises
    SizeLimitError.
    """
    return Fraction(*_ratio(value))


def _ratio(value):
    """(p, q) with q > 0 and p/q the rational parse_fraction reads from
    value, unreduced: the one reader of every value the package takes in."""
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value.strip())
        if match:
            num, den = match.groups()
            den = _parse_int(den) if den else 1
            if den:
                return _parse_int(num), den
    elif isinstance(value, Fraction):
        return value.numerator, value.denominator
    elif isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise ValueError(f"not a rational: {value!r}")


def _plain_over_lcm(values):
    """_over_lcm of the values' (p, q) in one pass, when every value is a
    JSON int or a plain "p/q" or "p" string whose numbers JSON reads; else
    None, and _ratio, the only reader that words a refusal, reads them one
    by one.  A whole number p is read as "p/1", and one json.loads reads
    every p and q.  Numbers past Python's int-string limit are left to
    _ratio too."""
    kinds = set(map(type, values))
    if not kinds <= {str, int}:  # a bool, a Fraction, a str or int subclass
        return None
    try:
        texts = list(map(str, values)) if int in kinds else values
        text = ",".join(texts)
        if text.count("/") != len(values):  # "p/1" for every value with no "/"
            ones = map(("/1", "").__getitem__, map(contains, texts, repeat("/")))
            text = ",".join(map(add, texts, ones))
        if text.translate(_DROP_PLAIN) or _TWO_SLASHES.search(text):
            return None  # a blank, a "+", a digit of another script, or "p/q/r"
        flat = json.loads(f"[{text.replace('/', ',')}]")
    except ValueError:  # not JSON's grammar, or a number past the int-string limit
        return None
    # text holds len(values) or more "/", so 2 * len(values) numbers mean
    # exactly len(values) "/" and no "," inside a value; with no value
    # holding two, each holds one, and the numbers pair up as p, q
    if len(flat) != 2 * len(values):
        return None
    nums, dens = flat[0::2], flat[1::2]
    scale = dict.fromkeys(dens)
    if min(scale, default=1) <= 0:  # a signed q, or q = 0
        return None
    d = lcm(*scale)
    for q in scale:
        scale[q] = d // q
    return list(map(mul, nums, map(scale.__getitem__, dens))), d


def format_fraction(value):
    value = Fraction(value)
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(p, d):
    """str(Fraction(p, d)) for d > 0 with no Fraction built: one gcd, then
    "p/q" in lowest terms, or "p" when q is 1."""
    g = gcd(p, d)
    try:
        return str(p // g) if d == g else f"{p // g}/{d // g}"
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


class _IntView:
    """The canonical integer view ``_ints`` of games, Mobius tables,
    solutions and node shares, over an owner: a lattice, or the node
    count n.  The ints are in storage order (element index, mask bit or
    node); the Fraction tuple in that order and a table's element-keyed
    dict (``values``, ``coefficients``) are caches built on first use.
    This constructor reads a table's values straight into the view.
    """

    lattice = property(attrgetter("_owner"), doc="the lattice the view lives on")

    def __init__(self, lattice, values, fill=None):
        for k in values:
            try:
                ok = k in lattice
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{k!r} is not an element of {lattice.describe()}")
        pairs = []
        for x in lattice.elements:
            if x in values:
                pairs.append(_ratio(values[x]))
            elif fill is not None:
                pairs.append(fill)
            else:
                raise ValueError(f"missing value for {lattice.key(x)}")
        self._set(lattice, _canonical(*_over_lcm(pairs)))

    @classmethod
    def _from_ints(cls, owner, ints, d):
        """A view of the rationals ints / d (d > 0) that this package
        computed, in storage order, reduced to canonical form."""
        view = cls.__new__(cls)
        view._set(owner, _canonical(ints, d))
        return view

    def _set(self, owner, ints):
        self._owner = owner
        self._ints = ints
        self._vector = None
        self._view = None

    def _end(self, i):
        """Entry i (0 or -1), read off the view."""
        ints, d = self._ints
        return Fraction(ints[i], d)

    def _fractions(self):
        """The rationals in storage order, as Fractions.  A zero int gets
        one shared Fraction(0): a Mobius mass is mostly zeros."""
        if self._vector is None:
            ints, d = self._ints
            zero = Fraction(0)
            self._vector = tuple(Fraction(q, d) if q else zero for q in ints)
        return self._vector

    vector = _fractions

    def _total(self):
        """The sum of the rationals, as a Fraction."""
        ints, d = self._ints
        return Fraction(sum(ints), d)

    def _render(self, keys, ints):
        """({key: "p/q"}, [(p, d)]) for ints of this view over its d,
        paired in order with keys: the texts a payload prints, and the
        ratios the CSV approx column reads off the same ints."""
        d = self._ints[1]
        ratios = [(p, d) for p in ints]
        return {key: _format_ratio(p, d) for key, (p, d) in zip(keys, ratios)}, ratios

    def __eq__(self, other):
        return (type(other) is type(self)
                and other._owner == self._owner
                and other._ints == self._ints)

    def _table(self):
        if self._view is None:
            self._view = dict(zip(self.lattice.elements, self.vector()))
        return self._view

    def value(self, x):
        return self.vector()[self.lattice.index(x)]

    __getitem__ = value

    def __repr__(self):
        lat = self.lattice
        return f"{type(self).__name__}({lat.describe()}, {len(lat)} entries)"


class LatticeGame(_IntView):
    """A rational-valued function on every element of one lattice."""

    values = property(_IntView._table, doc="{element: value}")

    @property
    def bottom_value(self):
        return self._end(0)

    @property
    def top_value(self):
        return self._end(-1)

    def normalize_bottom(self):
        """Shift so the bottom sits at zero; returns (game, shift removed).

        The shifted game holds only its integer view."""
        ints, d = self._ints
        low = ints[0]
        if low == 0:
            return self, Fraction(0)
        return LatticeGame._from_ints(self.lattice, [q - low for q in ints], d), Fraction(low, d)

    def __add__(self, other):
        if not isinstance(other, LatticeGame) or other.lattice is not self.lattice:
            return NotImplemented
        return self._plus(other, 1)

    def __sub__(self, other):
        if not isinstance(other, LatticeGame) or other.lattice is not self.lattice:
            return NotImplemented
        return self._plus(other, -1)

    def _plus(self, other, sign):
        """self + sign * other, in ints over the lcm of both denominators."""
        (a, d), (b, e) = self._ints, other._ints
        m = lcm(d, e)
        s, t = m // d, sign * (m // e)
        return LatticeGame._from_ints(self.lattice, [p * s + q * t for p, q in zip(a, b)], m)

    def __mul__(self, scalar):
        p, q = _ratio(scalar)
        ints, d = self._ints
        return LatticeGame._from_ints(self.lattice, [p * v for v in ints], q * d)

    __rmul__ = __mul__

    def payload(self):
        lat = self.lattice
        return {"lattice": lat.tag, "n": lat.n,
                "values": self._render(lat.key_indices(), self._ints[0])[0]}

    @classmethod
    def from_payload(cls, payload, max_n=None):
        """Read {"lattice", "n", "values": {element key: "p/q"}}; strict totality.

        When the keys are the lattice's canonical keys (its key table's)
        and every value is plain, the values are gathered in element order
        through the key table and read in one pass (_plain_over_lcm).  Any
        other payload is read item by item: a key in another spelling is
        parsed, and that loop words every refusal.
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
        if len(raw) == len(keys):  # with every canonical key, no other key
            try:
                texts = list(map(raw.__getitem__, keys))
            except KeyError:  # a key in another spelling
                texts = None
            view = texts and _plain_over_lcm(texts)
            if view:
                return cls._from_ints(lat, *view)
        pairs = [None] * len(lat)
        for key, text in raw.items():
            i = keys.get(key)
            if i is None:
                if not isinstance(key, str):
                    raise ValueError(f"element keys are strings, got {key!r}")
                i = lat.index(lat.parse_element(key))
            if pairs[i] is not None:
                raise ValueError(f"duplicate value for element {lat.key(lat.elements[i])}")
            pairs[i] = _ratio(text)
        if len(raw) != len(pairs):  # keys are distinct elements, so some are missing
            raise ValueError(f"missing value for {lat.key(lat.elements[pairs.index(None)])}")
        return cls._from_ints(lat, *_over_lcm(pairs))


class MobiusCoefficients(_IntView):
    """Mobius coefficients on a lattice; missing entries count as zero."""

    coefficients = property(_IntView._table, doc="{element: coefficient}")

    def __init__(self, lattice, coefficients):
        super().__init__(lattice, coefficients, fill=(0, 1))

    def support(self):
        return tuple(x for x, q in zip(self.lattice.elements, self._ints[0]) if q)

    def zeta_expand(self):
        return zeta_expand(self)


def _over_lcm(pairs):
    """(ints, d): the rationals p/q (q > 0) of pairs as integers over d,
    the lcm of their q, not yet reduced."""
    d = lcm(*(q for _, q in pairs))
    return [p * (d // q) for p, q in pairs], d


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
    ints, d = game._ints
    mu = [0] * len(ints)
    for i, v, get in zip(range(len(ints)), ints, lat._getters()):
        # the down-set of i ends with i itself, whose entry is still 0
        mu[i] = v - sum(get(mu))
    return MobiusCoefficients._from_ints(lat, mu, d)


def zeta_expand(coeffs):
    """The game with value sum of coefficients over the down-set of each element."""
    lat = coeffs.lattice
    # each down-set's getter reads its coefficients off the vector in one
    # call; the sums stay Fractions: int sums run 4.4x as fast but wait on
    # ROADMAP item 1
    vec = coeffs.vector()
    sums = [sum(get(vec), Fraction(0)) for get in lat._getters()]
    return LatticeGame._from_ints(lat, *_over_lcm(list(map(Fraction.as_integer_ratio, sums))))


def zeta_game(lattice, x):
    """Indicator of the up-set of x: worth 1 once cooperation reaches x,
    on every element whose mask holds the mask of x."""
    below = lattice.masks[lattice.index(x)]
    return LatticeGame._from_ints(lattice, [int(m & below == below) for m in lattice.masks], 1)


def _known_keys(obj, known, where):
    """Refuse a key outside known: a misspelt one would read as absent."""
    for key in obj:
        if key not in known:
            raise ValueError(f"{where}: unknown key {key!r}; expected one of {list(known)}")
