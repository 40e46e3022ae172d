"""Set partitions, embedded subsets, and the three lattices they form.

The ground set is {1, ..., n}.  Three graded lattices are supported:

* ``2^N`` - subsets ordered by inclusion; the atoms are the singletons,
* ``P^N`` - set partitions ordered by refinement (bottom = all
  singletons); the atoms are the pairs {i, j}, the edges of a network,
* ``E^N`` - embedded subsets (A, P) with P a partition and A a block of P
  or the empty set.

E^N is P^(n+1) relabelled: the order isomorphism that inserts the extra
element n+1 into the distinguished block (a fresh singleton when A is
empty) gives both the same element order, so E^N reads the atom masks of
P^(n+1), which owns them.

All three lattices are atomistic: an element is fixed by the atoms below
it.  Each element carries them as an integer bitmask; the order, meet,
join, size, covers and down-sets are read off the masks, and nothing
else answers an order question: ``Partition`` and ``EmbeddedSubset``
are element types with no order of their own.  Elements are listed in
a linear extension of the order, bottom first.

P^N is enumerated once, by a descending restricted-growth recursion
that adds each pair to the mask as it places an element; the count and
the distinctness of the masks are checked after.  That recursion places
n+1 last, so E^N's elements are read off P^n's partitions in order, each
sharing its partition object, and their count is checked against
P^(n+1).  Every table read off the masks is built by ``owned`` and kept
by the masks' owner (P^(n+1) for E^N); the first, the atom incidence, is
one pass over the masks.  The down-set of element j is every index up
to j outside the bitsets of the atoms j lacks, whose OR is looked up in
one table per 7 mask bits; the AND of the bitsets of j's atoms holds the
elements above j, and a join is the lowest index above both atom sets.

``rank`` counts covering steps from the bottom, ``size`` counts atoms
below an element.  One Hasse table, read off the incidence, holds the
covers of every element i and the maximal chains of [bottom, i] and of
[i, top] counted over them in exact integers: the chain-uniform weights.
"""

from __future__ import annotations

import os
import re
from functools import lru_cache, wraps
from itertools import combinations, repeat
from math import comb, factorial
from operator import and_, itemgetter, or_, rshift, xor

DEFAULT_MAX_N = 8
CHAIN_CAP = 5
ENV_MAX_N = "LATTICE_GAMES_MAX_N"

LATTICE_TAGS = ("2^N", "P^N", "E^N")

# An integer in text: an optionally signed run of ASCII digits.  int()
# alone also reads other scripts' digits ("\u0661", "\uff11") and
# underscores ("1_0"), which no number or key here is spelt with.
INTEGER = re.compile(r"[+-]?[0-9]+")


class SizeLimitError(ValueError):
    """A requested ground set exceeds the configured size cap, or a number
    Python's limit on int-string digits."""


def parse_int(text):
    """int(text) for an integer in text, blanks around it allowed; any
    other text, or a text that is not a str, raises ValueError."""
    if isinstance(text, str):
        text = text.strip()
        if INTEGER.fullmatch(text):
            return int(text)
    raise ValueError(f"not an integer: {text!r}")


class VerificationError(RuntimeError):
    """A proof object failed the check made before it is returned.

    That is a fault in this package, never in the input, so it is not a
    ValueError (which the command line reports as malformed input).  The
    checks are explicit raises, not asserts, so they also run under
    ``python -O``.
    """


def ground_cap(override=None):
    """Effective cap on ground-set size.

    An explicit override wins, then the LATTICE_GAMES_MAX_N environment
    variable, then the default of 8 (Bell(8) = 4140 lattice elements).
    The override is an int (not a bool) or the text of one in ASCII
    digits; a cap below 1, which no lattice fits under, is malformed input.
    """
    if override is not None:
        if isinstance(override, int) and not isinstance(override, bool):
            cap = override
        else:
            try:
                cap = parse_int(override)
            except ValueError:
                raise ValueError(f"max_n must be an integer, got {override!r}") from None
    else:
        raw = os.environ.get(ENV_MAX_N)
        if raw is None:
            return DEFAULT_MAX_N
        try:
            cap = parse_int(raw)
        except ValueError:
            raise ValueError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValueError(f"{ENV_MAX_N} must be at least 1, got {cap}" if override is None
                         else f"max_n must be at least 1, got {override!r}")
    return cap


@lru_cache(maxsize=None)
def bell(n):
    """Number of set partitions of an n-element set."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    return sum(comb(n - 1, k) * bell(k) for k in range(n))


def class_vectors(n):
    """All block-size class vectors (c_1, ..., c_n), largest parts first.

    A class vector records c_k blocks of size k, so sum k*c_k = n.  One
    vector per integer partition of n.
    """
    out = []
    counts = [0] * n

    def rec(remaining, max_part):
        if remaining == 0:
            out.append(tuple(counts))
            return
        for part in range(min(max_part, remaining), 0, -1):
            counts[part - 1] += 1
            rec(remaining - part, part)
            counts[part - 1] -= 1

    if n > 0:
        rec(n, n)
    return out


def class_count(cvec):
    """How many partitions of {1..n} share the class vector (c_1, ..., c_n)."""
    n = 0
    for k, c in enumerate(cvec, start=1):
        if c < 0:
            raise ValueError("class vector entries must be nonnegative")
        n += k * c
    if n == 0:
        raise ValueError("class vector describes an empty ground set")
    den = 1
    for k, c in enumerate(cvec, start=1):
        den *= factorial(k) ** c * factorial(c)
    count, rest = divmod(factorial(n), den)
    if rest:
        raise VerificationError(f"count {factorial(n)}/{den} is not an integer")
    return count


def class_key(cvec):
    """Serialize a class vector as its block sizes, largest first: "3,1,1"."""
    sizes = []
    for k, c in enumerate(cvec, start=1):
        sizes.extend([k] * c)
    sizes.sort(reverse=True)
    return ",".join(str(s) for s in sizes)


def parse_class_key(text, n):
    """Inverse of class_key for a ground set of size n."""
    try:
        sizes = [parse_int(tok) for tok in text.split(",")]
    except ValueError:
        raise ValueError(f"bad class key {text!r}") from None
    if any(s < 1 for s in sizes) or sum(sizes) != n:
        raise ValueError(f"class key {text!r} does not describe a partition of {n}")
    cvec = [0] * n
    for s in sizes:
        cvec[s - 1] += 1
    return tuple(cvec)


class Partition:
    """A set partition of {1, ..., n} in canonical form.

    Blocks are tuples sorted ascending and listed by least element, so
    equal partitions compare and hash equal.
    """

    __slots__ = ("n", "blocks")

    def __init__(self, n, blocks):
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if n < 1:
            raise ValueError("ground set must have at least one element")
        seen = set()
        norm = []
        for block in blocks:
            b = tuple(sorted(block))
            if not b:
                raise ValueError("empty block")
            for x in b:
                if isinstance(x, bool) or not isinstance(x, int) or not 1 <= x <= n:
                    raise ValueError(f"element {x!r} outside 1..{n}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
            norm.append(b)
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise ValueError(f"blocks do not cover {missing}")
        norm.sort()
        self.n = n
        self.blocks = tuple(norm)

    @classmethod
    def bottom(cls, n):
        return cls(n, [(i,) for i in range(1, n + 1)])

    @classmethod
    def top(cls, n):
        return cls(n, [range(1, n + 1)])

    @classmethod
    def _canonical(cls, n, blocks):
        """Wrap a tuple of blocks already in canonical form, unchecked."""
        p = object.__new__(cls)
        p.n = n
        p.blocks = blocks
        return p

    @classmethod
    def pair(cls, n, i, j):
        """The atom joining i and j, every other element a singleton."""
        if i == j:
            raise ValueError("a pair atom needs two distinct elements")
        rest = [(x,) for x in range(1, n + 1) if x not in (i, j)]
        return cls(n, [(i, j)] + rest)

    def __eq__(self, other):
        return (isinstance(other, Partition)
                and self.n == other.n and self.blocks == other.blocks)

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __repr__(self):
        return f"Partition({self.n}, {self.blocks!r})"

    def __str__(self):
        return self.label()

    @property
    def rank(self):
        return self.n - len(self.blocks)

    @property
    def size(self):
        """Atoms below this partition: pairs lying inside a common block."""
        return sum(len(b) * (len(b) - 1) // 2 for b in self.blocks)

    def class_vector(self):
        cvec = [0] * self.n
        for b in self.blocks:
            cvec[len(b) - 1] += 1
        return tuple(cvec)

    def rgs_tuple(self):
        """The block number of each element 1..n, blocks counted from 0."""
        owner = {x: idx for idx, b in enumerate(self.blocks) for x in b}
        return tuple(owner[x] for x in range(1, self.n + 1))

    def rgs(self):
        """Restricted-growth string, e.g. "00102"; needs at most ten blocks."""
        code = self.rgs_tuple()
        if max(code) > 9:
            raise ValueError("restricted-growth strings stop at ten blocks")
        return "".join(str(d) for d in code)

    @classmethod
    def from_rgs(cls, code, n=None):
        if isinstance(code, str):
            try:
                digits = [parse_int(ch) for ch in code]
            except ValueError:
                raise ValueError(f"bad restricted-growth string {code!r}") from None
        else:
            digits = list(code)
        if not digits:
            raise ValueError("empty restricted-growth code")
        if n is not None and n != len(digits):
            raise ValueError(f"code {code!r} has length {len(digits)}, expected {n}")
        top = -1
        groups = {}
        for pos, d in enumerate(digits, start=1):
            if not 0 <= d <= top + 1:
                raise ValueError(f"not a restricted-growth code: {code!r}")
            top = max(top, d)
            groups.setdefault(d, []).append(pos)
        return cls(len(digits), groups.values())

    def label(self):
        """Block notation: "1,2|3|4,5"."""
        return "|".join(",".join(str(x) for x in b) for b in self.blocks)

    @classmethod
    def parse(cls, text, n=None):
        """Read block notation; a string starting with '0' is read as an RGS."""
        text = text.strip()
        if not text:
            raise ValueError("empty partition string")
        if text[0] == "0":
            return cls.from_rgs(text, n)
        blocks = []
        for part in text.split("|"):
            try:
                block = [parse_int(tok) for tok in part.split(",")]
            except ValueError:
                raise ValueError(f"bad partition string {text!r}") from None
            blocks.append(block)
        total = sum(len(b) for b in blocks)
        if n is not None and total != n:
            raise ValueError(f"partition {text!r} covers {total} elements, expected {n}")
        return cls(total, blocks)


class EmbeddedSubset:
    """A pair (A, P): a partition P of {1..n} together with one of its
    blocks A, or the empty set."""

    __slots__ = ("subset", "partition")

    def __init__(self, subset, partition):
        sub = tuple(sorted(subset))
        if any(isinstance(x, bool) for x in sub):
            raise ValueError(f"{sub} holds a bool, not an element of 1..{partition.n}")
        if sub and sub not in partition.blocks:
            raise ValueError(f"{sub} is not a block of {partition}")
        self.subset = sub
        self.partition = partition

    @property
    def n(self):
        return self.partition.n

    @property
    def rank(self):
        return self.partition.rank + (1 if self.subset else 0)

    @property
    def size(self):
        return len(self.subset) + self.partition.size

    def __eq__(self, other):
        return (isinstance(other, EmbeddedSubset)
                and self.subset == other.subset
                and self.partition == other.partition)

    def __hash__(self):
        return hash((self.subset, self.partition))

    def __repr__(self):
        return f"EmbeddedSubset({self.subset!r}, {self.partition!r})"

    def __str__(self):
        return self.label()

    def label(self):
        """Composite notation "A;P", e.g. "1,2;1,2|3" or ";1|2|3" for empty A."""
        return ",".join(str(x) for x in self.subset) + ";" + self.partition.label()

    @classmethod
    def parse(cls, text, n=None):
        head, sep, tail = text.strip().partition(";")
        if not sep:
            raise ValueError(f"embedded subsets read as \"A;P\", got {text!r}")
        part = Partition.parse(tail, n)
        if head:
            try:
                subset = [parse_int(tok) for tok in head.split(",")]
            except ValueError:
                raise ValueError(f"bad embedded subset {text!r}") from None
        else:
            subset = []
        return cls(subset, part)

    @classmethod
    def from_partition(cls, part):
        """Inverse image: the block holding the top element becomes A.

        part is canonical, so m is the last entry of its block, dropping it
        keeps that block's least element (or removes the last block, (m,)),
        and the result is canonical as it stands: nothing is re-checked.
        """
        m = part.n
        if m < 2:
            raise ValueError("need at least two elements to peel one off")
        blocks = part.blocks
        k = next(k for k, b in enumerate(blocks) if b[-1] == m)
        subset = blocks[k][:-1]
        rest = blocks[:k] + ((subset,) if subset else ()) + blocks[k + 1:]
        x = object.__new__(cls)
        x.subset = subset
        x.partition = Partition._canonical(m - 1, rest)
        return x


def owned(build):
    """A table of a lattice's masks: build(owner) on the first call from any
    lattice reading them, then the same object, kept in the owner's store."""
    @wraps(build)
    def table(lat):
        store = lat.owner._store
        if build.__name__ not in store:
            store[build.__name__] = build(lat.owner)
        return store[build.__name__]
    return table


def _ones(bits, index):
    """The index objects at the places of the "1"s of a text of bits."""
    out = []
    i = bits.find("1")
    while i >= 0:
        out.append(index[i])
        i = bits.find("1", i + 1)
    return tuple(out)


def _partitions(n):
    """The set partitions of {1..n} in descending restricted-growth order,
    with their atom masks (bit k for the k-th pair (i, j) in lexicographic
    order).

    Element x goes into a new block first, then into the existing blocks
    from the last opened to the first: descending digits at each position.
    A block's entries are placed in ascending order and blocks open in
    order of their least entry, so every partition is canonical as built,
    and placing x adds the pairs (y, x) for y in its block to the mask.
    """
    bits = {pair: 1 << k for k, pair in enumerate(combinations(range(1, n + 1), 2))}
    parts, masks = [], []
    blocks = []

    def place(x, mask):
        if x > n:
            parts.append(Partition._canonical(n, tuple(blocks)))
            masks.append(mask)
            return
        blocks.append((x,))
        place(x + 1, mask)
        blocks.pop()
        for d in range(len(blocks) - 1, -1, -1):
            block = blocks[d]
            blocks[d] = block + (x,)
            place(x + 1, mask | sum(bits[y, x] for y in block))
            blocks[d] = block

    place(1, 0)
    return parts, masks


def _embedded(parts):
    """The embedded subsets over the partitions of {1..n}, parts in P^n's
    order, listed in P^(n+1)'s: _partitions places n+1 last, so each p gives
    ((), p) first, n+1 a fresh singleton, then (B, p) for its blocks B from
    the last opened to the first.  Each shares p and its block, unchecked."""
    new = object.__new__
    out = []
    for p in parts:
        for subset in ((),) + p.blocks[::-1]:
            x = new(EmbeddedSubset)
            x.subset = subset
            x.partition = p
            out.append(x)
    return tuple(out)


class Lattice:
    """Canonical element order, atom bitmasks, and the order questions
    answered from them.

    Subclasses supply ``elements`` (a linear extension of the order,
    bottom first and top last), ``atoms``, the atom bitmask of every
    element (handed to ``_finish``), ``class_of`` and ``parse_element``;
    ``rank`` and ``key`` default to the element's own.  The lattices are
    atomistic, so an element's atoms fix it: ``leq``, ``meet``, ``join``,
    ``size``, ``atoms_below`` and the tables of ``owner``, the lattice
    that owns the masks (incidence, down-sets, Hasse table), read them.
    """

    tag = "?"

    def __init__(self, n, owner=None):
        self.n = n
        self.owner = self if owner is None else owner
        self._store = {}  # the tables of owned, on an owner
        self._keys = None
        self._atom_keys = None

    def _finish(self, masks, bit_atoms=None):
        """Index the elements; bit k of masks[i] is set when bit_atoms[k]
        (default: the atoms in order) lies below element i."""
        self._pos = {e: i for i, e in enumerate(self.elements)}
        self._mask = masks
        self._bit_atoms = bit_atoms or self.atoms
        owner = self.owner
        self._by_mask = {m: i for i, m in enumerate(masks)} if owner is self else owner._by_mask

    def describe(self):
        return f"{self.tag} with n={self.n}"

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x):
        return x in self._pos

    @property
    def bottom(self):
        return self.elements[0]

    @property
    def top(self):
        return self.elements[-1]

    def index(self, x):
        try:
            return self._pos[x]
        except (KeyError, TypeError):
            raise ValueError(f"{x!r} is not an element of {self.describe()}") from None

    def key_indices(self):
        """{key(x): index of x} over the elements, built on first use."""
        if self._keys is None:
            self._keys = {self.key(x): i for i, x in enumerate(self.elements)}
        return self._keys

    def atom_key_bits(self):
        """(key(a), mask bit of a) for the atoms a in atoms order, built on
        first use."""
        if self._atom_keys is None:
            self._atom_keys = tuple((self.key(a), self._mask[self._pos[a]].bit_length() - 1)
                                    for a in self.atoms)
        return self._atom_keys

    @property
    def masks(self):
        """The atom bitmask of every element, in element order; bit k
        stands for atoms_below(top)[k]."""
        return self._mask

    def leq(self, x, y):
        mask = self._mask
        return not mask[self.index(x)] & ~mask[self.index(y)]

    def meet(self, x, y):
        return self.elements[self.meet_index(self.index(x), self.index(y))]

    def join(self, x, y):
        return self.elements[self.join_index(self.index(x), self.index(y))]

    def mask_index(self, mask):
        """Index of the element whose atoms are exactly the bits of mask."""
        return self._by_mask[mask]

    def meet_index(self, i, j):
        return self._by_mask[self._mask[i] & self._mask[j]]

    def join_index(self, i, j):
        both = self._mask[i] | self._mask[j]
        # An element holding exactly both sets of atoms is the join; else the
        # first common upper bound in the element order, a linear extension.
        k = self._by_mask.get(both)
        if k is None:
            above = self._above(both)
            k = (above & -above).bit_length() - 1
        return k

    def size(self, x):
        """Number of atoms below x."""
        return self._mask[self.index(x)].bit_count()

    def atoms_below(self, x):
        """The atoms below x, in mask-bit order."""
        mask = self._mask[self.index(x)]
        return tuple(a for k, a in enumerate(self._bit_atoms) if mask >> k & 1)

    def rank(self, x):
        return x.rank

    def cover_indices(self, i):
        """The covers of element i, ascending, as (index, mask of the atoms it adds)."""
        return [(j, self._mask[j] & ~self._mask[i]) for j in self._hasse()[0][i]]

    def class_of(self, x):
        """Relabeling-invariant class of x (see each lattice)."""
        raise NotImplementedError

    def key(self, x):
        return x.label()

    def parse_element(self, text):
        raise NotImplementedError

    # -- order tables ---------------------------------------------------

    @owned
    def _incidence(self):
        """(index, bitsets, flipped): one int object per element index, which
        every table of indices lists; per mask bit k, the indices holding k
        as bits i and size - 1 - i for index i.  The masks are transposed:
        one text of bits each, one slice per bit."""
        masks = self._mask
        width = masks[-1].bit_length()  # the top holds every atom
        text = "".join(map(format, masks, repeat(f"0{width}b")))
        cols = [text[width - 1 - k::width] for k in range(width)]  # place i: bit k of mask i
        index = tuple(range(len(masks)))
        return index, tuple(int(col[::-1], 2) for col in cols), tuple(int(col, 2) for col in cols)

    @owned
    def _holders(self):
        """Per mask bit k, the indices holding k, ascending: the bitsets as tuples."""
        index, bitsets, _ = self._incidence()
        return tuple(_ones(bin(held)[:1:-1], index) for held in bitsets)

    @owned
    def _order_tables(self):
        """The down-sets: x <= y exactly when x's atoms are among y's, and
        only earlier elements lie below a later one, so the down-set of j
        is every index up to j outside the bitsets of the atoms j lacks.
        Their OR is read from one table per 7 mask bits, which holds the
        OR of the bitsets of every subset of those bits: one lookup per
        7 bits of the atoms an element lacks."""
        index, bitsets, _ = self._incidence()
        masks = self._mask
        lacks = list(map(xor, masks, repeat(masks[-1])))  # the top holds every atom
        outside = repeat(0, len(masks))
        for c in range(0, len(bitsets), 7):
            table = [0]
            for held in bitsets[c:c + 7]:
                table += [t | held for t in table]
            outside = map(or_, outside, map(table.__getitem__, map(  # lazy: one OR held at a time
                and_, map(rshift, lacks, repeat(c)), repeat(127))))
        return tuple(_ones(bin(((2 << j) - 1) & ~out)[:1:-1], index)  # place i: index i
                     for j, out in enumerate(outside))

    @owned
    def _getters(self):
        """gets[j] reads the entries of down-set j off an index vector as one
        sequence; each holds its down-set tuple itself, the bottom's one-
        element down-set as a slice.  Built on the first Mobius or zeta
        call.  ``lattice_for`` builds no table: the down-sets are built by
        their first reader, ``downset_indices``, ``mobius``, ``zeta_expand``
        or su's first call on the lattice."""
        return tuple(itemgetter(*down) if len(down) > 1 else itemgetter(slice(j, j + 1))
                     for j, down in enumerate(self._order_tables()))

    def downset_indices(self, i):
        return self._order_tables()[i]

    def _above(self, mask):
        """Bitset of the element indices whose masks hold every bit of mask."""
        bitsets = self._incidence()[1]
        above = (1 << len(self._mask)) - 1
        while mask:
            above &= bitsets[(mask & -mask).bit_length() - 1]
            mask &= mask - 1
        return above

    # -- chains ---------------------------------------------------------

    @owned
    def _hasse(self):
        """(covers, below, above): the covers of each element i, ascending,
        and the maximal chains of [bottom, i] and of [i, top].  A cover of x
        is x v a, a an atom not below x (the lattices are atomistic and upper-
        semimodular); each must go one rank up and add atoms no other cover
        of x adds.  A hit's least index is read off its bit length."""
        masks = self._mask
        size = len(masks)
        index, _, flipped = self._incidence()  # bitsets read backwards
        ranks = [self.rank(x) for x in self.elements]
        where = self.describe()
        covers = []
        below = [1] + [0] * (size - 1)
        # ups[j]: the elements whose masks hold all of j's, set when j is
        # first found as a cover, dropped once j's covers are found
        ups = [(1 << size) - 1] + [None] * (size - 1)
        for i, m in enumerate(masks):
            above, ups[i] = ups[i], None
            next_rank, chains = ranks[i] + 1, below[i]
            rem = masks[-1] & ~m  # atoms not yet placed in a cover
            row = []
            while rem:
                hit = above & flipped[(rem & -rem).bit_length() - 1]
                j = size - hit.bit_length()
                group = masks[j] & ~m
                if group & ~rem:
                    raise VerificationError(f"covers of element {i} on {where} overlap")
                if ranks[j] != next_rank:
                    raise VerificationError(f"element {j} of rank {ranks[j]} is no cover "
                                            f"of element {i} of rank {ranks[i]} on {where}")
                if ups[j] is None:  # hit holds the lowest atom of the group
                    rest = group & (group - 1)
                    while rest:
                        hit &= flipped[(rest & -rest).bit_length() - 1]
                        rest &= rest - 1
                    ups[j] = hit
                row.append(index[j])
                below[j] += chains  # final: i covers only earlier elements
                rem &= ~group
            row.sort()
            covers.append(tuple(row))
        above = [0] * (size - 1) + [1]
        for i in range(size - 2, -1, -1):
            above[i] = sum(map(above.__getitem__, covers[i]))
        return tuple(covers), tuple(below), tuple(above)

    def chain_count_total(self):
        """The number of maximal chains, bottom to top."""
        return self._hasse()[2][0]

    def maximal_chains(self):
        """All maximal chains bottom -> top, as tuples of elements."""
        ground = self.owner.n  # n + 1 on E^N
        if ground > CHAIN_CAP:
            raise SizeLimitError(
                f"maximal-chain listing on {self.describe()} needs ground size "
                f"{ground}, over the cap {CHAIN_CAP}; counts remain available")
        chains = []
        trail = [0]
        top = len(self.elements) - 1

        def walk(i):
            if i == top:
                chains.append(tuple(self.elements[k] for k in trail))
                return
            for j, _ in self.cover_indices(i):
                trail.append(j)
                walk(j)
                trail.pop()

        walk(0)
        if len(chains) != self.chain_count_total():
            raise VerificationError(
                f"{len(chains)} maximal chains listed on {self.describe()}, "
                f"{self.chain_count_total()} counted")
        return chains


class SubsetLattice(Lattice):
    """Subsets of {1..n} ordered by inclusion, listed by size then lex."""

    tag = "2^N"

    def __init__(self, n):
        super().__init__(n)
        elems = []
        for k in range(n + 1):
            for combo in combinations(range(1, n + 1), k):
                elems.append(frozenset(combo))
        self.elements = tuple(elems)
        self.atoms = tuple(frozenset((i,)) for i in range(1, n + 1))
        self._finish(tuple(sum(1 << (i - 1) for i in x) for x in elems))

    def rank(self, x):
        return len(x)

    def class_of(self, x):
        return len(x)

    def key(self, x):
        return ",".join(str(i) for i in sorted(x))

    def parse_element(self, text):
        text = text.strip()
        if not text:
            return frozenset()
        try:
            items = [parse_int(tok) for tok in text.split(",")]
        except ValueError:
            raise ValueError(f"bad subset {text!r}") from None
        out = frozenset(items)
        if len(out) != len(items) or not all(1 <= i <= self.n for i in out):
            raise ValueError(f"bad subset {text!r} for n={self.n}")
        return out


class PartitionLattice(Lattice):
    """Set partitions of {1..n} under refinement.

    Canonical order is descending lexicographic on restricted-growth
    codes, which puts the all-singleton bottom first and the one-block
    top last.  Atom k is the k-th pair (i, j) in lexicographic order.
    """

    tag = "P^N"

    def __init__(self, n):
        super().__init__(n)
        parts, masks = _partitions(n)
        self.elements = tuple(parts)
        self.atoms = tuple(Partition.pair(n, i, j) for i, j in combinations(range(1, n + 1), 2))
        self._finish(tuple(masks))
        if len(masks) != bell(n) or len(self._by_mask) != len(masks):
            raise VerificationError(
                f"{len(masks)} partitions with {len(self._by_mask)} distinct masks "
                f"enumerated on {self.describe()}, Bell number {bell(n)}")

    def class_of(self, x):
        return x.class_vector()

    def parse_element(self, text):
        return Partition.parse(text, self.n)


class EmbeddedLattice(Lattice):
    """Embedded subsets of {1..n}: P^(n+1) relabelled.

    Element i is the preimage of element i of P^(n+1), its ``owner``, which
    owns the masks, the mask index and every table read off them; only the
    atom behind each mask bit is relabelled.  The elements are read off the
    partitions of P^n, whose objects they share.
    """

    tag = "E^N"

    def __init__(self, n):
        super().__init__(n, _build("P^N", n + 1))
        inner = self.owner
        self.elements = _embedded(_build("P^N", n).elements)
        if len(self.elements) != len(inner.elements):
            raise VerificationError(f"{len(self.elements)} embedded subsets read off P^{n}, "
                                    f"{len(inner.elements)} partitions in {inner.describe()}")
        bot = Partition.bottom(n)
        node_atoms = [EmbeddedSubset((i,), bot) for i in range(1, n + 1)]
        pair_atoms = [EmbeddedSubset((), Partition.pair(n, i, j))
                      for i, j in combinations(range(1, n + 1), 2)]
        self.atoms = tuple(node_atoms + pair_atoms)
        self._finish(inner._mask, tuple(self.elements[inner.index(a)] for a in inner.atoms))

    def class_of(self, x):
        """Class vector of the image partition in P^(n+1).

        These are the orbits of the relabeling group once the embedded
        structure is carried over, and the solution theory for symmetric
        games holds at exactly this granularity.
        """
        return self.owner.elements[self.index(x)].class_vector()

    def parse_element(self, text):
        return EmbeddedSubset.parse(text, self.n)


@lru_cache(maxsize=None)
def _build(tag, n):
    if tag == "2^N":
        return SubsetLattice(n)
    if tag == "P^N":
        return PartitionLattice(n)
    return EmbeddedLattice(n)  # lattice_for has refused every other tag


def lattice_for(tag, n, max_n=None):
    """Shared lattice instance for a tag in {"2^N", "P^N", "E^N"}.

    Raises SizeLimitError when n is over the cap (see ground_cap); E^N
    works inside P^(n+1), so its ground size is n+1.
    """
    if tag not in LATTICE_TAGS:
        raise ValueError(f"unknown lattice tag {tag!r}; expected one of {LATTICE_TAGS}")
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    cap = ground_cap(max_n)
    ground = n + 1 if tag == "E^N" else n
    if ground > cap:
        raise SizeLimitError(
            f"{tag} with n={n} needs ground size {ground}, over the cap {cap}; "
            f"raise it via max_n or {ENV_MAX_N}")
    return _build(tag, n)

