"""Point-valued solutions: shares per atom of the cooperation lattice.

A solution of a game f picks one rational share per atom, summing to
f(top) - f(bottom).  The size-uniform solution spreads each Mobius
dividend over the atoms below its element, the chain-uniform solution
averages per-size marginal contributions over uniformly random maximal
chains (each cover edge weighed by the chains through it), and the
egalitarian solution ignores structure entirely.  On the subset lattice
the first two collapse to the Shapley value.  Both are one crediting
step: su hands it each dividend with the atoms below its element, cu
each group of atoms with the marginals of the cover edges that add it.

A solution stores its shares as one canonical integer view, like a
table in ``transform``; Fractions are built only when asked for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import factorial, lcm

from .lattice import VerificationError, lattice_for
from .transform import (LatticeGame, _canonical, _fractions, _over_lcm, _ratio,
                        format_fraction, mobius, parse_fraction)
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
        return {"lattice": lat.tag, "n": lat.n,
                "shares": {lat.key(a): format_fraction(q)
                           for a, q in zip(lat.atoms, self.vector())},
                "efficiencyCheck": format_fraction(self.efficiency())}


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
    return _shares(game, zip(game.lattice.masks[1:], mobius(game)._ints[0][1:]), 1, "su")


def cu(game):
    """Chain-uniform sharing, one pass over the cover edges.

    An atom is credited the per-size marginal of the covering step where
    it first appears under a uniformly random maximal chain.  Cover edge
    i -> j lies on below[i] * above[j] of the above[0] maximal chains,
    and adds that many integer marginals to every atom it adds.  The
    edges that add the same atoms are summed into one gain first.
    """
    ints, masks = game._ints[0], game.lattice.masks
    covers, below, above = game.lattice._hasse()
    gains = {}  # per group of atoms a cover edge adds
    for i, row in enumerate(covers):
        low, chains, start = masks[i], below[i], ints[i]
        for j in row:
            group = masks[j] ^ low
            gains[group] = gains.get(group, 0) + chains * above[j] * (ints[j] - start)
    return _shares(game, gains.items(), above[0], "cu")


def _shares(game, gains, weight, name):
    """Spread each int gain evenly over the atoms of its mask group, as
    ints over C * weight * d (C = lcm(1..#atoms), d the game's), checked
    on the game's ints to sum to f(top) - f(bottom)."""
    lat = game.lattice
    ints, d = game._ints
    common = lcm(*range(1, len(lat.atoms) + 1))
    credit = [0] * len(lat.atoms)  # per mask bit
    for group, gain in gains:
        if gain:
            _credit(credit, group, gain * (common // group.bit_count()))
    total = common * weight
    if sum(credit) != total * (ints[-1] - ints[0]):
        raise VerificationError(
            f"{name} shares on {lat.describe()} do not sum to f(top) - f(bottom)")
    return Solution._from_ints(lat, credit, total * d)


def _credit(credit, group, gain):
    """Add gain to the credit of every mask bit set in group."""
    while group:
        low = group & -group
        credit[low.bit_length() - 1] += gain
        group ^= low


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
    """Per-node totals after splitting edge shares between endpoints."""

    def __init__(self, n, shares):
        for k in shares:
            if isinstance(k, bool) or not isinstance(k, int) or not 1 <= k <= n:
                raise ValueError(f"node {k!r} is outside 1..{n}")
        self.n = n
        self.shares = {i: parse_fraction(shares.get(i, 0)) for i in range(1, n + 1)}

    def vector(self):
        return tuple(self.shares[i] for i in range(1, self.n + 1))

    def total(self):
        return sum(self.shares.values(), Fraction(0))

    def __eq__(self, other):
        return (isinstance(other, NodeShares)
                and other.n == self.n and other.shares == self.shares)

    def __repr__(self):
        return f"NodeShares({self.vector()!r})"

    def payload(self):
        return {"n": self.n,
                "shares": {str(i): format_fraction(self.shares[i])
                           for i in range(1, self.n + 1)}}


def split_to_nodes(sol, weights=None):
    """Split each edge share between its endpoints.

    weights maps (i, j) with i < j to the pair of endpoint weights, which
    must sum to one; edges without an entry split evenly.
    """
    lat = sol.lattice
    if lat.tag != "P^N":
        raise ValueError("node splitting applies to edge shares on P^N")
    n = lat.n
    half = Fraction(1, 2)
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
    totals = {i: Fraction(0) for i in range(1, n + 1)}
    for (i, j), q in zip(combinations(range(1, n + 1), 2), sol._vector):  # bit k: pair k
        wi, wj = table.get((i, j), (half, half))
        totals[i] += wi * q
        totals[j] += wj * q
    return NodeShares(n, totals)


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
