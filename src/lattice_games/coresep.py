"""Core feasibility and additive separability, in exact arithmetic.

The core of a lattice game asks for atom shares that are efficient at
the top and weakly dominate f everywhere below it.  Feasibility is
decided by a phase-1 simplex with Bland's rule on a fraction-free
integer tableau: every entry is an int over one common denominator, the
determinant of the current basis, so each pivot divides exactly and no
Fraction is built until the answer is read off.  The LP reads the
lattice as it is stored: one row per element mask, one column per atom
mask bit, and the game's integer view (its values as ints over one
denominator) as the right-hand side.  Only about half of the tableau is
stored: the columns of u, the nonnegative parts of the shares, and of
the artificials, with the reduced costs at the same width.  The other
parts' columns are -u and the surplus columns are signed copies of the
artificial ones; every pivot is one exact linear map on the columns, so
those copies stay exact and are read through a column map, and their
reduced costs through a cost map.  An empty core comes with a Farkas
certificate, a nonempty one with a witness point, both ints over the
final determinant, re-verified on those ints before they are returned,
the certificate through the lattice's atom incidence; a failed check
raises VerificationError.

Separability asks the converse of building a partition game from a set
function on the affected groups: which games arise that way?  The test
recovers the only candidate set functions and checks each through the
additive lift that builds such games (``games._lift``), comparing the
lifted integer view with the game's on every element.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import EmbeddedSubset, Partition, VerificationError, lattice_for
from .transform import LatticeGame, format_fraction, parse_fraction
from .games import PredicateReport, _lift
from .solutions import Solution


# ---------------------------------------------------------------------------
# constraint systems and feasibility


class CoreSystem:
    """The linear system behind a core: one lower bound per element plus
    the efficiency equality at the top.  Element x's bound sums the
    shares on the atoms below x, whose bits its mask holds; cols are the
    atoms' mask bits in lattice.atoms order (on E^N not the mask-bit
    order), and the bounds are the game's values as ints over d."""

    def __init__(self, game):
        lat = game.lattice
        self.lattice = lat
        self.cols = [lat.masks[lat.index(a)] for a in lat.atoms]
        self.ints, self.d = game._ints

    def check(self, shares, e):
        """Elements whose lower bound the shares violate, for shares given
        as ints over their own denominator e > 0 in mask-bit order (each
        bound sums the shares on its element's bits); the top equality
        counts when it fails in either direction.  A bound b over d holds
        when the sum times d reaches b times e."""
        lat, d = self.lattice, self.d
        violated = [x for x, m, b in zip(lat.elements, lat.masks, self.ints)
                    if sum(q for k, q in enumerate(shares) if m >> k & 1) * d < b * e]
        if sum(shares) * d != self.ints[-1] * e and lat.top not in violated:
            violated.append(lat.top)
        return violated


def _phase1(masks, cols, rhs):
    """Decide {x : Ax >= b, cx = d} by minimizing artificial slack.

    Row k of A is read off masks[k]: its coefficient on x_j is 1 when
    masks[k] holds the bit cols[j] and 0 otherwise.  The last mask is
    the equality's row c, and rhs holds the ints b and then d.  Returns
    ("feasible", point, det) or ("infeasible", (y, lam), det), the proof
    as ints over det > 0, where y >= 0 pairs with the inequalities, lam
    with the equality, and sum y_i a_i + lam c = 0 while
    sum y_i b_i + lam d > 0.

    The tableau holds only ints (Edmonds 1967; Bareiss 1968): the stored
    rows are det(B) times the rational tableau of the current basis B,
    reduced costs included.  By Cramer's rule that is adj(B) times an
    integer matrix, so every entry is an integer minor and each pivot's
    update (p*t - f*e) // det divides exactly.  det starts at 1 and stays
    positive: the pivot p is det(B) for the new basis, and the ratio test
    only pivots on positive entries.  Signs and ratio comparisons are
    therefore those of the rational tableau, so Bland's rule (first
    negative reduced cost; ties in the ratio test to the smallest basis
    index) makes the same pivots and the same proof objects.

    The full tableau has columns u, w (x = u - w), one surplus per
    inequality, one artificial per row and the rhs, but only u, the
    artificials and the rhs are stored, the reduced costs too: each w
    column is -u, and surplus column k is -sigma_k times artificial
    column k, where sigma_k = +-1 is the sign row k was flipped by.  Both
    hold in the first tableau, and a pivot maps every column by the same
    linear map, rounding nothing since each division is exact, so they
    hold in every tableau.  column[j] gives full column j as (stored
    column, sign).  A reduced cost is det times the column's cost minus
    the basis costs times the column; w costs 0 like u and a surplus 0
    where an artificial costs 1, so red(w_j) = -red(u_j) and red(s_k) =
    sigma_k (det - red(a_k)), which cost(j) reads.
    """
    nvars = len(cols)
    m = len(masks)
    n_ineq = m - 1
    ncols = 2 * nvars + n_ineq  # x = u - w, one surplus per inequality
    total = ncols + m           # then one artificial per row
    width = nvars + m           # stored: u, the artificials; rhs last
    sigma = [-1 if b < 0 else 1 for b in rhs]
    rows = []
    for k, (mask, b, s) in enumerate(zip(masks, rhs, sigma)):
        rows.append([s if mask & c else 0 for c in cols]
                    + [int(i == k) for i in range(m)] + [s * b])
    # full column j as (stored column, sign): u, w, the surplus columns
    # (sign -sigma_k on artificial k), the artificials
    column = ([(j, 1) for j in range(nvars)] + [(j, -1) for j in range(nvars)]
              + [(nvars + k, -s) for k, s in enumerate(sigma[:n_ineq])]
              + [(nvars + k, 1) for k in range(m)])

    def cost(j):
        col, sign = column[j]
        return sign * (red[col] - det) if 2 * nvars <= j < ncols else sign * red[col]

    # reduced costs for min sum(artificials) with the artificial basis
    red = [-sum(col) for col in zip(*rows)]
    red[nvars:width] = [0] * m
    basis = list(range(ncols, total))
    det = 1

    while True:
        enter = next((j for j in range(total) if cost(j) < 0), None)
        if enter is None:
            break
        col, sign = column[enter]
        leave = None
        for i, row in enumerate(rows):
            a = sign * row[col]
            if a > 0:
                if leave is not None:
                    # compare rhs_i / a with num / den; a, den > 0
                    here, best = row[width] * den, num * a
                    if here > best or (here == best and basis[i] > basis[leave]):
                        continue
                leave, num, den = i, row[width], a
        if leave is None:
            raise VerificationError(
                "phase-1 ratio test found no pivot, yet the objective is "
                "bounded below by zero")
        pivot = rows[leave]
        p = sign * pivot[col]
        for i, row in enumerate(rows):
            if i != leave:
                rows[i] = _eliminate(row, pivot, p, sign * row[col], det)
        red = _eliminate(red, pivot, p, cost(enter), det)
        det = p
        basis[leave] = enter

    if sum(rows[i][width] for i in range(m) if basis[i] >= ncols) == 0:
        x = [0] * ncols
        for i, bv in enumerate(basis):
            if bv < ncols:
                x[bv] = rows[i][width]
        return "feasible", [x[j] - x[nvars + j] for j in range(nvars)], det
    # optimal duals of the phase-1 problem, read off the artificial columns
    y = [s * (det - r) for s, r in zip(sigma, red[nvars:width])]
    return "infeasible", (y[:-1], y[-1]), det


def _eliminate(row, pivot, p, f, det):
    """One fraction-free pivot step on a row other than the pivot row:
    clear its entry f in the entering column, where the pivot row holds
    p, and move it from the old common denominator det to the new one,
    p."""
    if f == 0:
        return row if p == det else [p * t // det for t in row]
    return [(p * t - f * e) // det for t, e in zip(row, pivot)]


class CoreReport:
    """Outcome of a core feasibility check, with its proof object."""

    def __init__(self, game, status, witness=None, certificate=None):
        self.game = game
        self.status = status
        self.witness = witness          # Solution, when nonempty
        self.certificate = certificate  # (multipliers dict, lam), when empty

    def __bool__(self):
        return self.status == "nonempty"

    def __repr__(self):
        return f"CoreReport({self.status})"

    def payload(self):
        lat = self.game.lattice
        out = {"lattice": lat.tag, "n": lat.n, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness.payload()["shares"]
        if self.certificate is not None:
            multipliers, lam = self.certificate
            out["certificate"] = {
                "lowerBounds": {lat.key(x): format_fraction(q)
                                for x, q in multipliers.items()},
                "efficiency": format_fraction(lam)}
        return out


def core_feasible(game):
    """Decide core nonemptiness; the answer carries a verified witness or
    a verified infeasibility certificate."""
    system = CoreSystem(game)
    lat, ints = system.lattice, system.ints
    status, proof, det = _phase1([*lat.masks, lat.masks[-1]], system.cols, [*ints, ints[-1]])
    if status == "feasible":
        # the point's columns are in lat.atoms order; sort them by mask bit
        shares = [q for _, q in sorted(zip(system.cols, proof))]
        if system.check(shares, det * system.d):
            raise VerificationError("simplex returned an infeasible point")
        return CoreReport(game, "nonempty",
                          witness=Solution._from_ints(lat, shares, det * system.d))
    multipliers, lam = proof
    _check_certificate(system, multipliers, lam)
    named = {x: Fraction(q, det) for x, q in zip(lat.elements, multipliers) if q}
    return CoreReport(game, "empty", certificate=(named, Fraction(lam, det)))


def _check_certificate(system, multipliers, lam):
    """Farkas check: the combination cancels every variable yet demands a
    positive total, so no shares can satisfy the system.  The multipliers
    and lam are ints over one positive denominator, which keeps every
    sign.  Bit k is credited lam plus the multipliers of the elements
    holding it, the lattice's holder tuples read off its atom incidence;
    the total is read at the bounds' scale d > 0."""
    if any(q < 0 for q in multipliers):
        raise VerificationError("negative inequality multiplier")
    holders = system.lattice._holders()
    if any(lam + sum(map(multipliers.__getitem__, held)) for held in holders):
        raise VerificationError("certificate does not cancel the shares")
    ints = system.ints
    if lam * ints[-1] + sum(q * b for q, b in zip(multipliers, ints)) <= 0:
        raise VerificationError("certificate combination is not positive")


def core_contains(game, shares):
    """Whether given shares lie in the core; lists violated elements."""
    sol = shares if isinstance(shares, Solution) else Solution(game.lattice, shares)
    if sol.lattice is not game.lattice:
        raise ValueError("shares live on a different lattice than the game")
    violated = CoreSystem(game).check(*sol._ints)
    return PredicateReport(not violated, violated or None)


# ---------------------------------------------------------------------------
# additive separability


def _merge_bottom(n, group):
    """The partition with the given group as a block and all else single."""
    blocks = [tuple(sorted(group))] if group else []
    blocks.extend((i,) for i in range(1, n + 1) if i not in group)
    return Partition(n, blocks)


def _recover(game, singletons):
    """The only set function with these singleton values that could
    separate the game: read each larger value off the partition that
    merges exactly that group.  v(empty), which no block reads, is 0."""
    n = game.lattice.n
    total = sum(singletons.values(), Fraction(0))
    v = {frozenset((i,)): singletons[i] for i in range(1, n + 1)}
    for group in lattice_for("2^N", n, n).elements[n + 1:]:  # by size, then in lex order
        outside = total - sum(singletons[i] for i in group)
        v[group] = game[_merge_bottom(n, group)] - outside
    v[frozenset()] = Fraction(0)
    return v


def _first_violation(game, v):
    """First element (in lattice order) where the lift of the set function
    v misses the game, or None.  Only the groups of 1..n are read, and an
    absent v(empty), which counts on E^N only, reads as 0; the two
    integer views are cross-multiplied."""
    lat = game.lattice
    groups = lattice_for("2^N", lat.n, lat.n)  # past any cap lat was built past
    lifted = _lift(LatticeGame(groups, {g: v.get(g, 0) for g in groups.elements}), lat)
    (a, d), (b, e) = lifted._ints, game._ints
    return next((x for x, p, q in zip(lat.elements, a, b) if p * e != q * d), None)


class SeparatingFamily:
    """All set functions whose blockwise sums give one partition game.

    Singleton values are free up to their fixed sum f(bottom); every
    value on a larger group then follows, and v(empty) plays no part in
    any blockwise sum.  base spreads the singleton total uniformly and
    sets v(empty) = 0.
    """

    def __init__(self, game, base):
        self.game = game
        self.n = game.lattice.n
        self.base = base

    def singleton_total(self):
        return self.game.bottom_value

    def member(self, singletons):
        """The member with the given singleton values (dict i -> value)."""
        n = self.n
        if sorted(singletons) != list(range(1, n + 1)):
            raise ValueError(f"need one singleton value per element of 1..{n}")
        chosen = {i: parse_fraction(q) for i, q in singletons.items()}
        total = sum(chosen.values(), Fraction(0))
        if total != self.singleton_total():
            raise ValueError(
                f"singleton values sum to {total}, "
                f"need {self.singleton_total()}")
        v = _recover(self.game, chosen)
        if _first_violation(self.game, v) is not None:
            raise VerificationError("member of a verified family fails to separate")
        return v

    def contains(self, v):
        """Whether a set function separates the game; v(empty) is ignored."""
        table = {frozenset(k): parse_fraction(q) for k, q in v.items()}
        if not all(g in table for g in lattice_for("2^N", self.n, self.n).elements[1:]):
            return False
        return _first_violation(self.game, table) is None


class SeparabilityReport:
    """Outcome of a separability test; true iff a decomposition exists."""

    def __init__(self, separable, family=None, v=None, violated=None):
        self.separable = separable
        self.family = family    # P^N case
        self.v = v              # E^N case: the unique set function
        self.violated = violated

    def __bool__(self):
        return self.separable

    def __repr__(self):
        return f"SeparabilityReport({self.separable})"


def separability_test(game):
    """Decide whether a game is a blockwise sum of one set function.

    On P^N the decomposition, when it exists, is unique up to shifting
    singleton values (keeping their sum), so checking the uniform-spread
    candidate decides the question; the report carries the family or the
    first violated partition.  On E^N the distinguished block pins the
    set function completely, so the report carries the unique v or the
    first violated element.
    """
    tag = game.lattice.tag
    if tag == "P^N":
        return _separate_partition_game(game)
    if tag == "E^N":
        return _separate_embedded_game(game)
    raise ValueError(f"separability concerns P^N and E^N games, got {tag}")


def _separate_partition_game(game):
    n = game.lattice.n
    spread = game.bottom_value / n
    v = _recover(game, {i: spread for i in range(1, n + 1)})
    bad = _first_violation(game, v)
    if bad is not None:
        return SeparabilityReport(False, violated=bad)
    return SeparabilityReport(True, family=SeparatingFamily(game, v))


def _separate_embedded_game(game):
    """With a distinguished block the set function is forced, the empty
    group included: marking a singleton counts it twice, so differences
    along the bottom row untangle everything."""
    n = game.lattice.n

    def at_bottom(group):
        inner = _merge_bottom(n, group) if len(group) > 1 else Partition.bottom(n)
        return game[EmbeddedSubset(group, inner)]

    base = at_bottom(frozenset())  # v(empty) + sum of singletons
    diffs = {i: at_bottom(frozenset((i,))) - base for i in range(1, n + 1)}
    # each diff is v({i}) - v(empty), so the base row pins v(empty)
    empty = (base - sum(diffs.values(), Fraction(0))) / (n + 1)
    v = {frozenset(): empty}
    for i in range(1, n + 1):
        v[frozenset((i,))] = empty + diffs[i]
    for group in lattice_for("2^N", n, n).elements[n + 1:]:
        outside = sum(v[frozenset((i,))] for i in range(1, n + 1) if i not in group)
        v[group] = (at_bottom(group) - outside) / 2
    bad = _first_violation(game, v)
    if bad is not None:
        return SeparabilityReport(False, violated=bad)
    return SeparabilityReport(True, v=v)
