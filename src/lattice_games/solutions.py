"""Point-valued solutions: shares per atom of the cooperation lattice.

A solution of a game f picks one rational share per atom, summing to
f(top) - f(bottom).  The size-uniform solution spreads each Mobius
dividend over the atoms below its element, the chain-uniform solution
averages per-size marginal contributions over uniformly random maximal
chains (each cover edge weighed by the chains through it), and the
egalitarian solution ignores structure entirely.  On the subset lattice
the first two collapse to the Shapley value.

su and cu are fixed linear maps from a game's ints to its atoms' shares,
and the masks alone fix them, so each runs off a table ``lattice.owned``
keeps for the masks' owner (P^(n+1) for E^N).  su's credit table holds
the holder tuples read off the atom incidence and, per element, C over
its atom count (C = lcm(1..#atoms)); an su call is a few map/sum passes
over the Mobius ints.  cu's word table holds one int per element: column y of
cu's matrix, one signed field per mask bit.  A
cu call is one multiply-add pass of the game's ints over the words and
one unpack of the fields; ints wider than LIMB bits are read a LIMB-bit
limb at a time, one pass each.  Both check that the shares sum to
f(top) - f(bottom).

A solution, and the node shares split from it, are ``transform``'s one
integer view class: a solution's shares are ints over one denominator
in mask-bit order on its lattice, node shares in node order on n.  The
view owns construction from ints, ``==``, the Fraction cache (``shares``,
``vector()``, ``value``/``[]``), the total (``efficiency()``,
``total()``) and the renderer that payloads and CSV rows print through,
with no Fraction built per share.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, combinations, islice, repeat
from math import factorial, lcm
from operator import add, and_, attrgetter, mul, rshift, xor

from .lattice import VerificationError, lattice_for, owned
from .transform import (LatticeGame, _IntView, _canonical, _over_lcm, _ratio, mobius,
                        parse_fraction)
from .games import SymmetricGame, is_symmetric

LIMB = 32  # bits of a game int that one packed cu pass reads
_TOP = 1 << LIMB


class Solution(_IntView):
    """Shares per atom; an exact allocation of f(top) - f(bottom).

    The shares are one canonical integer view ``_ints`` in mask-bit
    order: share k belongs to ``lattice.atoms_below(lattice.top)[k]``,
    which is ``lattice.atoms`` order on 2^N and P^N and P^(n+1)'s pair
    order on E^N.  ``shares`` is a dict view built on each access;
    ``vector()`` is in atoms order.
    """

    def __init__(self, lattice, shares):
        pairs = [None] * len(lattice.atoms)
        for a in lattice.atoms:
            if a not in shares:
                raise ValueError(f"missing share for atom {lattice.key(a)}")
            pairs[lattice.masks[lattice.index(a)].bit_length() - 1] = _ratio(shares[a])
        if len(shares) != len(pairs):
            stray = next(k for k in shares if k not in lattice.atoms)
            raise ValueError(f"{stray!r} is not an atom of {lattice.describe()}")
        self._set(lattice, _canonical(*_over_lcm(pairs)))

    @property
    def shares(self):
        """{atom: share}"""
        lat = self.lattice
        return dict(zip(lat.atoms_below(lat.top), self._fractions()))

    def value(self, a):
        lat = self.lattice
        if a not in lat.atoms:
            raise ValueError(f"{a!r} is not an atom of {lat.describe()}")
        return self._fractions()[lat.masks[lat.index(a)].bit_length() - 1]

    __getitem__ = value

    def vector(self):
        view = self.shares
        return tuple(view[a] for a in self.lattice.atoms)

    efficiency = _IntView._total

    def __repr__(self):
        return f"Solution({self.lattice.describe()}, {self.vector()!r})"

    def matches(self, coeffs):
        """Whether the shares are the Mobius mass: bottom aside, the
        coefficients equal the shares on the atoms and vanish elsewhere.

        Mobius inversion is unique and a bottom shift moves only the bottom
        coefficient, so this holds exactly when expanding the shares gives
        the game back with its bottom shifted to zero.  The two views may
        have different denominators, so entries are cross-multiplied.
        """
        lat = self.lattice
        if coeffs.lattice is not lat:
            return False
        (shares, d), (mass, e) = self._ints, coeffs._ints
        want = [0] * len(lat)
        for k, q in enumerate(shares):
            want[lat.mask_index(1 << k)] = q * e
        return all(p == q * d for p, q in zip(want[1:], mass[1:]))  # bottom first

    def _rendered(self, keys=None):
        """The rendered shares (``_render``), keyed by atom key in atoms
        order or by keys in mask-bit order, and their rendered total,
        keyed ""."""
        ints = self._ints[0]
        if keys is None:
            keyed = self.lattice.atom_key_bits()
            keys, ints = [key for key, _ in keyed], [ints[k] for _, k in keyed]
        return self._render(keys, ints), self._render([""], [sum(ints)])

    def payload(self):
        lat = self.lattice
        (shares, _), (total, _) = self._rendered()
        return {"lattice": lat.tag, "n": lat.n, "shares": shares, "efficiencyCheck": total[""]}


def _subset_only(game, who):
    if game.lattice.tag != "2^N":
        raise ValueError(f"{who} works on subset games, got {game.lattice.tag}")


def shapley_chain(game):
    """Average marginal contribution over uniformly random player orderings."""
    _subset_only(game, "shapley_chain")
    n = game.lattice.n
    denom = factorial(n)
    shares = {}
    for i in range(1, n + 1):
        rest = [x for x in range(1, n + 1) if x != i]
        acc = Fraction(0)
        for k in range(n):
            weight = Fraction(factorial(k) * factorial(n - k - 1), denom)
            for combo in combinations(rest, k):
                before = frozenset(combo)
                acc += weight * (game[before | {i}] - game[before])
        shares[frozenset((i,))] = acc
    return Solution(game.lattice, shares)


def shapley_dividends(game):
    """Each Mobius dividend splits evenly among the members of its coalition,
    which on 2^N are exactly the atoms below it: su on a subset game."""
    _subset_only(game, "shapley_dividends")
    return su(game)


def su(game):
    """Size-uniform sharing: each dividend spreads evenly over the atoms
    below its element.  Works on any of the three lattices.  The dividends
    are ints over the game's denominator, which mobius keeps; the bottom's
    mask is empty, so its dividend reaches no atom."""
    total, holders, scales = _su_table(game.lattice)
    weighed = list(map(mul, scales, mobius(game)._ints[0]))
    return _checked(game, [sum(map(weighed.__getitem__, held)) for held in holders],
                    total, "su")


def cu(game):
    """Chain-uniform sharing, one packed multiply-add pass.

    An atom is credited the per-size marginal of the covering step where
    it first appears under a uniformly random maximal chain, so the credit
    is a fixed linear map of the game's ints.  Word y of the table holds
    column y of that map, one signed field per mask bit, so the sum of
    int times word over the elements holds every atom's credit; one unpack
    reads the fields off.  A field has room for LIMB-bit ints; wider ints
    are read a LIMB-bit limb at a time, low limb first, and the limbs'
    credits are shifted into place.
    """
    total, bias, fields, words = _cu_words(game.lattice)
    mask, half = (1 << fields.step) - 1, 1 << fields.step - 1
    ints, credit, shift = game._ints[0], [0] * len(fields), 0
    while ints is not None:  # one pass per limb, low limb first
        low, ints = ints, None
        if max(low) >= _TOP or min(low) <= -_TOP:
            low, ints = list(map(and_, low, repeat(_TOP - 1))), list(map(rshift, low, repeat(LIMB)))
        packed = sum(map(mul, low, words), bias)
        credit = [c + ((packed >> k & mask) - half << shift) for c, k in zip(credit, fields)]
        shift += LIMB
    return _checked(game, credit, total, "cu")


def _checked(game, credit, total, name):
    """The solution of the credit per mask bit, ints over total * d (d the
    game's), checked on the game's ints to sum to f(top) - f(bottom)."""
    lat = game.lattice
    ints, d = game._ints
    if sum(credit) != total * (ints[-1] - ints[0]):
        raise VerificationError(
            f"{name} shares on {lat.describe()} do not sum to f(top) - f(bottom)")
    return Solution._from_ints(lat, credit, total * d)


def _common(lat):
    """C = lcm(1..#atoms): every group's even split is an int over it."""
    return lcm(*range(1, lat.masks[-1].bit_length() + 1))


@owned
def _su_table(lat):
    """(C, holders, scales) of su on lat: the lattice's holder tuples, and
    C // (the atoms below element i) per element, 0 on the bottom."""
    common = _common(lat)
    return common, lat._holders(), tuple(common // m.bit_count() if m else 0 for m in lat.masks)


@owned
def _cu_words(lat):
    """(C * above[0], bias, fields, words) of cu on lat, from its Hasse
    table.  Cover edge i -> j adds the atoms of its
    group g and lies on below[i] * above[j] maximal chains; times C // |g|
    it credits each field of g with the marginal f(j) - f(i).  So word y
    holds, in field k at bit k * width, that weight summed over the edges
    into y whose group holds bit k, minus the same sum over the edges out
    of y.  Each maximal chain adds every atom once, so a field's absolute
    values sum to at most 2 * C * above[0]; the width holds that times a
    LIMB-bit int, with a sign bit to spare.  fields is the range of field
    offsets, and bias puts half the field range in every field, so a sum
    of ints times words plus bias holds each field's credit plus that half.
    """
    masks = lat.masks
    covers, below, above = lat._hasse()
    common = _common(lat)
    width = LIMB + (2 * common * above[0]).bit_length() + 2
    fields = range(0, masks[-1].bit_length() * width, width)
    rows = list(map(len, covers))
    dst = list(chain.from_iterable(covers))
    splits = _packed_splits(map(xor, map(masks.__getitem__, dst),
                                chain.from_iterable(map(repeat, masks, rows))), fields, common)
    counts = {}  # a few distinct chain counts, one int object each
    chains = list(map(mul, chain.from_iterable(map(repeat, below, rows)), map(above.__getitem__, dst)))
    chains = list(map(counts.setdefault, chains, chains))
    weighed = map(mul, chains, splits)  # by source, row by row
    out = [sum(islice(weighed, k)) for k in rows]
    into = [[] for _ in covers]  # the edges into each element
    for _ in map(list.append, map(into.__getitem__, dst), range(len(dst))):
        pass
    order = list(chain.from_iterable(into))
    weighed = map(mul, map(chains.__getitem__, order), map(splits.__getitem__, order))  # by target
    half = 1 << width - 1
    return (common * above[0], sum(half << k for k in fields), fields,
            tuple([sum(islice(weighed, len(edges)), -o) for edges, o in zip(into, out)]))


def _packed_splits(groups, fields, common):
    """C // |g| in each field of g, for each group g in turn: one shared int
    per distinct group, its fields summed from tables of 7 mask bits."""
    groups = list(groups)
    distinct, spreads = list(set(groups)), repeat(0)
    for c in range(0, len(fields), 7):
        table = [0]
        for k in fields[c:c + 7]:
            table += [t + (1 << k) for t in table]
        spreads = list(map(add, spreads, map(table.__getitem__, map(
            and_, map(rshift, distinct, repeat(c)), repeat(127)))))
    packed = dict(zip(distinct, map(mul, map(common.__floordiv__, map(int.bit_count, distinct)),
                                    spreads)))
    return list(map(packed.__getitem__, groups))


def cu_chain_oracle(game):
    """cu recomputed from an explicit chain census; small n only."""
    lat = game.lattice
    vals = game.values
    credit = {a: Fraction(0) for a in lat.atoms}
    for chain in lat.maximal_chains():
        for x, y in zip(chain, chain[1:]):
            marginal = (vals[y] - vals[x]) / (lat.size(y) - lat.size(x))
            for a in lat.atoms:
                if lat.leq(a, y) and not lat.leq(a, x):
                    credit[a] += marginal
    total = lat.chain_count_total()
    return Solution(lat, {a: q / total for a, q in credit.items()})


def _uniform(lat, surplus):
    """The same share of surplus for every atom; no atoms, no shares."""
    k = len(lat.atoms)
    return Solution._from_ints(lat, [surplus.numerator] * k, surplus.denominator * max(k, 1))


def egalitarian(game):
    """The structure-blind extreme: the same share for every atom."""
    return _uniform(game.lattice, game.top_value - game.bottom_value)


def symmetric_solution(game):
    """Uniform share for a class-symmetric game, without touching dividends.

    Accepts a SymmetricGame or a LatticeGame (which must be symmetric).
    Equals su and cu of the expansion.
    """
    if isinstance(game, SymmetricGame):
        sym = game
    else:
        sym = is_symmetric(game)
        if sym is None:
            raise ValueError("game is not constant on relabeling classes")
    lat = lattice_for(sym.tag, sym.n) if sym is game else game.lattice
    values = sym.class_values
    return _uniform(lat, values[lat.class_of(lat.top)] - values[lat.class_of(lat.bottom)])


SOLVERS = {
    "shapley": shapley_dividends,
    "su": su,
    "cu": cu,
    "egalitarian": egalitarian,
}


def is_fixed_point(solver, game):
    """Whether the solution is the game's own Mobius mass (Solution.matches).

    Any bottom shift is ignored; solver is a name from SOLVERS or a
    callable.
    """
    if isinstance(solver, str):
        try:
            fn = SOLVERS[solver]
        except KeyError:
            raise ValueError(f"unknown solver {solver!r}; "
                             f"pick one of {sorted(SOLVERS)}") from None
    else:
        fn = solver
    return fn(game).matches(mobius(game))


def transport_solution(sol):
    """Carry shares along the atom bijection between E^n and P^(n+1).

    E^N element i is the preimage of P^(n+1) element i, so the two share
    their masks and their ground size n+1: share k stays share k.
    """
    lat = sol.lattice
    if lat.tag == "E^N":
        target = lattice_for("P^N", lat.n + 1, lat.n + 1)
    elif lat.tag == "P^N":
        if lat.n < 2:
            raise ValueError("nothing to peel off a one-element ground set")
        target = lattice_for("E^N", lat.n - 1, lat.n)
    else:
        raise ValueError("transport connects E^N with P^(n+1)")
    return Solution._from_ints(target, *sol._ints)


class NodeShares(_IntView):
    """Per-node totals after splitting edge shares between endpoints.

    Like a Solution, the totals are one canonical integer view ``_ints``
    in node order, owned by n; ``shares`` is a {node: Fraction} view
    built on each access, and ``payload()`` prints the ints.
    """

    lattice = None  # owned by n, not by a lattice
    n = property(attrgetter("_owner"), doc="the number of nodes")

    def __init__(self, n, shares):
        for k in shares:
            if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
                raise ValueError(f"node {k!r} is outside 1..{n}")
        self._set(n, _canonical(*_over_lcm([_ratio(shares.get(i, 0)) for i in range(1, n + 1)])))

    @property
    def shares(self):
        """{node: share}"""
        return dict(enumerate(self.vector(), 1))

    total = _IntView._total

    def __repr__(self):
        return f"NodeShares({self.vector()!r})"

    def _rendered(self):
        """The rendered totals (``_render``), keyed by node "1".."n"."""
        return self._render(map(str, range(1, self.n + 1)), self._ints[0])

    def payload(self):
        return {"n": self.n, "shares": self._rendered()[0]}


def split_to_nodes(sol, weights=None):
    """Split each edge share between its endpoints.

    weights maps (i, j) with i < j to the pair of endpoint weights, which
    must sum to one; edges without an entry split evenly.  The edge ints
    are summed over one denominator: 2d for an even split, the lcm of 2
    and the weights' denominators times d for a weighted one.
    """
    lat = sol.lattice
    if lat.tag != "P^N":
        raise ValueError("node splitting applies to edge shares on P^N")
    n = lat.n
    table = {}
    if weights:
        for key, pair in weights.items():
            i, j = key
            if _edge(i, j, n) != key:
                raise ValueError(f"weight key {key!r} is not an edge i < j of 1..{n}")
            wi, wj = (parse_fraction(w) for w in pair)
            if wi + wj != 1:
                raise ValueError(f"weights for edge {i},{j} sum to {wi + wj}, not 1")
            table[(i, j)] = (wi, wj)
    scale = lcm(2, *(w.denominator for pair in table.values() for w in pair))
    for edge, pair in table.items():
        table[edge] = tuple(w.numerator * (scale // w.denominator) for w in pair)
    even = (scale // 2,) * 2
    ints, d = sol._ints
    totals = [0] * (n + 1)
    for (i, j), p in zip(combinations(range(1, n + 1), 2), ints):  # bit k: pair k
        wi, wj = table.get((i, j), even)
        totals[i] += wi * p
        totals[j] += wj * p
    return NodeShares._from_ints(n, totals[1:], scale * d)


def _edge(i, j, n):
    """The edge between distinct nodes i and j of 1..n, as (low, high)."""
    if any(isinstance(k, bool) or not isinstance(k, int) for k in (i, j)) \
            or i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"edge {i!r},{j!r} is not a pair of distinct elements of 1..{n}")
    return (i, j) if i < j else (j, i)


def _neighbours(n, edges):
    """Bit j-1 of entry i-1 is set when the graph joins nodes i and j."""
    near = [0] * n
    for edge in edges:
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise ValueError(f"bad edge {edge!r}; expected a pair of nodes")
        i, j = _edge(*edge, n)
        near[i - 1] |= 1 << (j - 1)
        near[j - 1] |= 1 << (i - 1)
    return near


def graph_restrict(game, edges):
    """Confine cooperation to a communication graph (Myerson 1977).

    A coalition earns v(empty) plus v(C) - v(empty) for each connected
    component C of the subgraph it induces, so connected coalitions keep
    v and the dividends of disconnected ones vanish.  On 2^N bit i-1 of
    an element's mask is node i.  The restricted game holds only its
    integer view.
    """
    _subset_only(game, "graph_restrict")
    lat = game.lattice
    near = _neighbours(lat.n, edges)
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


def myerson(game, edges):
    """Dividend sharing of the graph-restricted game."""
    return shapley_dividends(graph_restrict(game, edges))
