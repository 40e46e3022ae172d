"""Point-valued solutions: shares per atom of the cooperation lattice.

A solution of a game f picks one rational share per atom, summing to
f(top) - f(bottom).  The size-uniform solution spreads each Mobius
dividend over the atoms below its element, the chain-uniform solution
averages per-size marginal contributions over uniformly random maximal
chains (each cover edge weighed by the chains through it), and the
egalitarian solution ignores structure entirely.  On the subset lattice
the first two collapse to the Shapley value.

su and cu are fixed linear maps from a game's ints to its atoms' shares,
and the lattice alone fixes them, so each runs off a credit table built
on its first call and kept per Hasse-table owner (E^N reads P^(n+1)'s):
su's holds, per mask bit, the elements whose masks hold it and, per
element, C over its atom count (C = lcm(1..#atoms)); cu's holds the
cover edges grouped by the atoms they add, each with the maximal chains
through it, and per mask bit the groups that hold it.  A call is then a
few map/sum passes over ints, checked to sum to f(top) - f(bottom).

A solution stores its shares as one canonical integer view, like a
table in ``transform``; Fractions are built only when asked for
(``shares``, ``vector()``, ``value``/``[]``, ``efficiency()``).
``payload()`` prints the ints through ``transform``'s one renderer, with
no Fraction built per share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, compress
from math import factorial, lcm
from operator import mul, sub

from .lattice import VerificationError, lattice_for
from .transform import (LatticeGame, _canonical, _format_ratio, _fractions, _over_lcm,
                        _ratio, mobius, parse_fraction)
from .games import SymmetricGame, is_symmetric


class Solution:
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
        self.lattice = lattice
        self._ints = _canonical(*_over_lcm(pairs))

    @classmethod
    def _from_ints(cls, lattice, ints, d):
        """A solution of the shares ints / d (d > 0) that this package
        computed, in mask-bit order, reduced to canonical form."""
        sol = cls.__new__(cls)
        sol.lattice = lattice
        sol._ints = _canonical(ints, d)
        return sol

    @cached_property
    def _vector(self):
        """The shares in mask-bit order, as Fractions."""
        return _fractions(self._ints)

    @property
    def shares(self):
        """{atom: share}"""
        lat = self.lattice
        return dict(zip(lat.atoms_below(lat.top), self._vector))

    def value(self, a):
        lat = self.lattice
        if a not in lat.atoms:
            raise ValueError(f"{a!r} is not an atom of {lat.describe()}")
        return self._vector[lat.masks[lat.index(a)].bit_length() - 1]

    __getitem__ = value

    def vector(self):
        view = self.shares
        return tuple(view[a] for a in self.lattice.atoms)

    def efficiency(self):
        ints, d = self._ints
        return Fraction(sum(ints), d)

    def __eq__(self, other):
        return (isinstance(other, Solution)
                and other.lattice is self.lattice and other._ints == self._ints)

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

    def payload(self):
        lat = self.lattice
        ints, d = self._ints
        return {"lattice": lat.tag, "n": lat.n,
                "shares": {key: _format_ratio(ints[k], d) for key, k in lat.atom_key_bits()},
                "efficiencyCheck": _format_ratio(sum(ints), d)}


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
    total, holders, scales = _su_table(_owner(game.lattice))
    weighed = list(map(mul, scales, mobius(game)._ints[0]))
    return _checked(game, [sum(map(weighed.__getitem__, held)) for held in holders],
                    total, "su")


def cu(game):
    """Chain-uniform sharing, one pass over the cover edges.

    An atom is credited the per-size marginal of the covering step where
    it first appears under a uniformly random maximal chain.  Cover edge
    i -> j lies on below[i] * above[j] of the above[0] maximal chains,
    and adds that many integer marginals to every atom it adds.  The
    edges that add the same atoms, a group, lie next to each other in the
    table, so a group's gain is the difference of two running sums.
    """
    total, src, dst, chains, starts, ends, scales, groups = _cu_table(_owner(game.lattice))
    at = game._ints[0].__getitem__
    sums = list(accumulate(map(mul, chains, map(sub, map(at, dst), map(at, src))), initial=0))
    upto = sums.__getitem__
    gains = list(map(mul, map(sub, map(upto, ends), map(upto, starts)), scales))
    return _checked(game, [sum(map(gains.__getitem__, held)) for held in groups], total, "cu")


def _checked(game, credit, total, name):
    """The solution of the credit per mask bit, ints over total * d (d the
    game's), checked on the game's ints to sum to f(top) - f(bottom)."""
    lat = game.lattice
    ints, d = game._ints
    if sum(credit) != total * (ints[-1] - ints[0]):
        raise VerificationError(
            f"{name} shares on {lat.describe()} do not sum to f(top) - f(bottom)")
    return Solution._from_ints(lat, credit, total * d)


def _owner(lat):
    """The lattice whose masks and Hasse table lat reads: P^(n+1) for E^N."""
    return getattr(lat, "inner", lat)


def _common(lat):
    """C = lcm(1..#atoms): every group's even split is an int over it."""
    return lcm(*range(1, lat.masks[-1].bit_length() + 1))


@lru_cache(maxsize=None)
def _su_table(lat):
    """(C, holders, scales) of su on lat, built on the first call: the
    element indices whose masks hold bit k, for every mask bit k, and
    C // (the atoms below element i) per element, 0 on the bottom."""
    masks = lat.masks
    common = _common(lat)
    idx = tuple(range(len(masks)))  # one int object per index, shared by the tuples
    holders = tuple(tuple(compress(idx, [m >> k & 1 for m in masks]))
                    for k in range(masks[-1].bit_length()))
    return common, holders, tuple(common // m.bit_count() if m else 0 for m in masks)


@lru_cache(maxsize=None)
def _cu_table(lat):
    """(C * above[0], src, dst, chains, starts, ends, scales, groups) of cu
    on lat, built on the first call from its Hasse table.  Cover edge e
    runs from src[e] to dst[e] on chains[e] = below[src] * above[dst]
    maximal chains; the edges are ordered by the group of atoms they add,
    group g spanning starts[g]:ends[g] with scale C // |g|, and groups[k]
    lists the groups holding mask bit k."""
    masks = lat.masks
    covers, below, above = lat._hasse()
    edges = {}  # group mask -> its cover edges, flat: i, j, i, j, ...
    for i, row in enumerate(covers):
        for j in row:
            edges.setdefault(masks[j] ^ masks[i], []).extend((i, j))
    src, dst, ends = [], [], []
    for flat in edges.values():
        src += flat[0::2]
        dst += flat[1::2]
        ends.append(len(src))
    counts = {}  # a few distinct chain counts, one int object each
    chains = tuple(counts.setdefault(c, c) for c in
                   map(mul, map(below.__getitem__, src), map(above.__getitem__, dst)))
    common = _common(lat)
    ids = tuple(range(len(edges)))
    groups = tuple(tuple(compress(ids, [g >> k & 1 for g in edges]))
                   for k in range(masks[-1].bit_length()))
    return (common * above[0], tuple(src), tuple(dst), chains, (0, *ends)[:-1],
            tuple(ends), tuple(common // g.bit_count() for g in edges), groups)


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


class NodeShares:
    """Per-node totals after splitting edge shares between endpoints.

    Like a Solution, the totals are one canonical integer view ``_ints``
    in node order; ``shares`` is a {node: Fraction} view built on each
    access, and ``payload()`` prints the ints.
    """

    def __init__(self, n, shares):
        for k in shares:
            if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
                raise ValueError(f"node {k!r} is outside 1..{n}")
        self.n = n
        self._ints = _canonical(*_over_lcm([_ratio(shares.get(i, 0)) for i in range(1, n + 1)]))

    @classmethod
    def _from_ints(cls, n, ints, d):
        """The totals ints / d (d > 0) of nodes 1..n, reduced to canonical form."""
        nodes = cls.__new__(cls)
        nodes.n = n
        nodes._ints = _canonical(ints, d)
        return nodes

    @property
    def shares(self):
        """{node: share}"""
        return dict(enumerate(self.vector(), 1))

    def vector(self):
        return _fractions(self._ints)

    def total(self):
        ints, d = self._ints
        return Fraction(sum(ints), d)

    def __eq__(self, other):
        return (isinstance(other, NodeShares)
                and other.n == self.n and other._ints == self._ints)

    def __repr__(self):
        return f"NodeShares({self.vector()!r})"

    def payload(self):
        ints, d = self._ints
        return {"n": self.n,
                "shares": {str(i): _format_ratio(p, d) for i, p in enumerate(ints, 1)}}


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
