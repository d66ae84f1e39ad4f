"""Monomial ideals: minimal generators, membership, colon, sum, product,
intersection, dominance, and the lcm lattice.

The lcm lattice has one code, _Lattice: exponents coded in unary by rank,
so that componentwise max is bitwise OR and a weight of 10^9 is one bit,
closed over one canonical point per orbit of the pattern's symmetry, and
capped at MAX_LISTED_ENTRIES points.  The symmetry has one code as well:
a point's state, the number of blocks of each class in each state, on
which the block permutations act trivially and the side swap, when the
two sides match, by exchanging classes and states; with no blocks the
group is trivial."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb, prod
from operator import getitem, itemgetter
from typing import Collection, Iterable, Iterator, Optional, Sequence

from .multidegree import (
    Multidegree,
    VariableSet,
    _trusted,
    divides,
    gcd,
    lcm,
    quotient,
)

# the most points an lcm lattice may have, and the most multigraded entries
# a table may list or compute: a crown table has about 3^n entries, 849,699
# at n = 10 and 3,540,670 at n = 11
MAX_LISTED_ENTRIES = 10**6


class _PastCap(ValueError):
    """A lattice or a table past MAX_LISTED_ENTRIES: the one ValueError that
    says the input is too big, not that the code is wrong."""


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal given by its minimal (antichain) generating set.

    Generators are kept sorted by exponent vector so that equal ideals
    compare equal and render deterministically.  The zero ideal has an
    empty generator tuple.
    """

    variables: VariableSet
    generators: tuple[Multidegree, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.variables != self.variables:
                raise ValueError("generator over a different variable set")
            # type, not isinstance: a bool is an int, but not an exponent
            if any(type(e) is not int for e in g.exponents):
                raise ValueError(f"non-integer exponent in {g.exponents}")
        reduced = _antichain(self.generators)
        object.__setattr__(self, "generators", tuple(sorted(reduced)))

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        # 1 divides every monomial, so a minimal generating set holding it is (1,)
        return len(self.generators) == 1 and self.generators[0].is_one()

    def support(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for g in self.generators:
            out |= g.support()
        return out

    def __str__(self) -> str:
        if self.is_zero():
            return "(0)"
        return "(" + ", ".join(str(g) for g in self.generators) + ")"


def _antichain(monomials: Iterable[Multidegree]) -> list[Multidegree]:
    """The monomials that no other one divides.

    1 divides every monomial.  Any other divisor d of m has a variable of
    supp(m) in its support, so m is tested only against the monomials that
    share a support variable with it, on the exponents of d's support.
    """
    ms = list(set(monomials))
    if any(m.is_one() for m in ms):
        return [m for m in ms if m.is_one()]
    supports = [[(k, e) for k, e in enumerate(m.exponents) if e] for m in ms]
    sharing: dict[int, list[int]] = {}
    for i, pairs in enumerate(supports):
        for k, _ in pairs:
            sharing.setdefault(k, []).append(i)

    def has_divisor(i: int) -> bool:
        exps = ms[i].exponents
        return any(
            j != i and all(exps[k] >= e for k, e in supports[j])
            for k, _ in supports[i]
            for j in sharing[k]
        )

    return [m for i, m in enumerate(ms) if not has_divisor(i)]


def minimalize(
    variables: VariableSet, monomials: Iterable[Multidegree]
) -> MonomialIdeal:
    """Ideal generated by the given monomials, with redundant ones dropped."""
    return MonomialIdeal(variables, tuple(monomials))


def contains(ideal: MonomialIdeal, m: Multidegree) -> bool:
    """Membership test for a monomial: some generator must divide it."""
    if m.variables != ideal.variables:
        raise ValueError("monomial over a different variable set")
    return any(divides(g, m) for g in ideal.generators)


def colon_by_monomial(ideal: MonomialIdeal, m: Multidegree) -> MonomialIdeal:
    """The colon ideal I : m, generated by u / gcd(u, m) over u in G(I)."""
    return minimalize(
        ideal.variables,
        (quotient(u, gcd(u, m)) for u in ideal.generators),
    )


def ideal_sum(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(a, b)
    return minimalize(a.variables, a.generators + b.generators)


def ideal_product(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    _check_same_ring(a, b)
    return minimalize(a.variables, (u * v for u in a.generators for v in b.generators))


def ideal_intersect(a: MonomialIdeal, b: MonomialIdeal) -> MonomialIdeal:
    """Intersection of two monomial ideals via pairwise lcms of generators."""
    _check_same_ring(a, b)
    return minimalize(
        a.variables, (lcm(u, v) for u in a.generators for v in b.generators)
    )


def scale(m: Multidegree, ideal: MonomialIdeal) -> MonomialIdeal:
    """The ideal m*I.  Translation preserves the antichain property, so the
    generator count is unchanged."""
    return minimalize(ideal.variables, (m * u for u in ideal.generators))


def is_dominant(ideal: MonomialIdeal) -> bool:
    """True iff every generator has a variable whose exponent strictly
    exceeds that variable's exponent in every other generator.  The Taylor
    resolution of such an ideal is minimal."""
    gens = ideal.generators
    for g in gens:
        owns = False
        for pos, e in enumerate(g.exponents):
            if e > 0 and all(
                other.exponents[pos] < e for other in gens if other is not g
            ):
                owns = True
                break
        if not owns:
            return False
    return True


def lcm_lattice(ideal: MonomialIdeal) -> frozenset[Multidegree]:
    """All lcms of nonempty subsets of the minimal generators: every point
    of every orbit of _Lattice(ideal), one Multidegree each.

    A lattice of more than MAX_LISTED_ENTRIES points is a ValueError: the
    closure stops at the slice of a round that passes the cap, and the
    orbits are counted before any is expanded.
    """
    lattice = _Lattice(ideal)
    points = list(lattice.closure())
    if sum(lattice.sizes(points)) > MAX_LISTED_ENTRIES:
        raise _PastCap(f"the lcm lattice passes the cap of {MAX_LISTED_ENTRIES} points")
    variables, exponents = ideal.variables, lattice.exponents
    return frozenset(_trusted(variables, exponents(q)) for q in lattice.expand(points))


def _block_classes(edges: Iterable[tuple[int, int]]) -> Optional[list[list[tuple[int, int]]]]:
    """The nonempty block classes of the graph with these edges (pairs of
    variable indices) when it is K_{A,B} minus a matching on a connected
    support, names and orientation aside: the matched pairs (a, b), then
    the unmatched a's and the unmatched b's, an unmatched vertex v being
    the block (v, v).  A is the side of the lowest vertex.  None for any
    other graph."""
    adjacent: dict[int, set[int]] = {}
    for u, v in edges:
        adjacent.setdefault(u, set()).add(v)
        adjacent.setdefault(v, set()).add(u)
    start = min(adjacent)
    side, stack = {start: 0}, [start]
    while stack:
        u = stack.pop()
        for v in adjacent[u]:
            if v not in side:
                side[v] = 1 - side[u]
                stack.append(v)
            elif side[v] == side[u]:
                return None
    if len(side) < len(adjacent):
        return None
    halves = sorted(v for v in side if not side[v]), sorted(v for v in side if side[v])
    missing: dict[int, list[int]] = {}
    for own, other in (halves, halves[::-1]):
        for u in own:
            missing[u] = [v for v in other if v not in adjacent[u]]
            if len(missing[u]) > 1:
                return None
    a_side, b_side = halves
    classes = [
        [(a, missing[a][0]) for a in a_side if missing[a]],
        [(a, a) for a in a_side if not missing[a]],
        [(b, b) for b in b_side if not missing[b]],
    ]
    return [blocks for blocks in classes if blocks]


def _side_swap(classes: list[list[tuple[int, int]]]) -> Optional[list[int]]:
    """The class image of the side swap of a pattern with these block
    classes (_block_classes): the swap exchanges the two vertices of each
    matched pair, so a matched class maps to itself, and the unmatched a's
    with the unmatched b's, so the two unmatched classes map to each other.
    None when there are not as many unmatched a's as unmatched b's."""
    image = list(range(len(classes)))
    singles = [c for c in image if classes[c][0][0] == classes[c][0][1]]
    if singles:
        if len(singles) == 1 or len(classes[singles[0]]) != len(classes[singles[1]]):
            return None
        a, b = singles
        image[a], image[b] = b, a
    return image


class _Blocks:
    """One class of interchangeable blocks of code bits: k blocks (a, b),
    an unmatched vertex v being the block (v, v).

    On a block a point is in state 0..3, (bit a) + 2 (bit b); an unmatched
    vertex is in state 0 or 3.  The class's part of a point's orbit under
    the block permutations is fixed by its counts, the number of its blocks
    in each state; place puts them in block order from the highest state
    down.  The states are counted on a word with bit r for block r's a and
    bit k + r for its b, gathered from the code a byte at a time.
    """

    def __init__(self, blocks: list[tuple[int, int]], width: int):
        self.k = k = len(blocks)
        layout = [0] * width
        # the a's and the b's of the first r blocks for r = 0..k, and each
        # block's bits in each state
        self.a_bits, self.b_bits, self.spread = [0], [0], []
        for r, (a, b) in enumerate(blocks):
            layout[a] |= 1 << r
            layout[b] |= 1 << k + r
            self.a_bits.append(self.a_bits[-1] | 1 << a)
            self.b_bits.append(self.b_bits[-1] | 1 << b)
            self.spread.append((0, 1 << a, 1 << b, 1 << a | 1 << b))
        # for each byte of the code that holds a block bit: its offset, and
        # the table from the byte's value to its bits' places in the word
        self.gathers = []
        for start in range(0, width, 8):
            if any(layout[start:start + 8]):
                table = [0]
                for place in layout[start:start + 8]:
                    table += [t | place for t in table]
                self.gathers.append((start, table))
        # state counts -> every placement of them over the last blocks, as
        # many as the counts add up to; filled by placed, for this lattice only
        self.placements: dict[tuple[int, ...], list[int]] = {}

    def counts(self, point: int) -> tuple[int, int, int, int]:
        """The number of blocks in state 0, 1, 2 and 3."""
        word = 0
        for start, gather in self.gathers:
            word |= gather[point >> start & 255]
        k = self.k
        a, b = word & (1 << k) - 1, word >> k
        both = (a & b).bit_count()
        one, two = a.bit_count() - both, b.bit_count() - both
        return k - both - one - two, one, two, both

    def place(self, counts: tuple[int, ...]) -> int:
        """The canonical placement of these counts: blocks in state 3, then
        2, then 1."""
        _, one, two, both = counts
        a_bits, mid = self.a_bits, both + two
        return a_bits[both] | self.b_bits[mid] | a_bits[mid + one] ^ a_bits[mid]

    def size(self, counts: tuple[int, ...]) -> int:
        """The number of ways to place these counts over the blocks."""
        zero, one, two, both = counts
        return comb(self.k, both) * comb(self.k - both, two) * comb(zero + one, one)

    def placed(self, left: tuple[int, ...]) -> list[int]:
        """Every placement of these state counts over the last blocks, as
        many as the counts add up to: the first of them takes each state
        that is left, and the rest are placed as the table says."""
        masks = self.placements.get(left)
        if masks is None:
            masks = []
            for s, bit in enumerate(self.spread[self.k - sum(left)]):
                if left[s]:
                    fewer = left[:s] + (left[s] - 1,) + left[s + 1:]
                    rest = self.placed(fewer) if any(fewer) else [0]
                    masks += [m | bit for m in rest] if bit else rest
            self.placements[left] = masks
        return masks


# a point's state: each block class's counts of blocks in state 0, 1, 2, 3
_State = tuple[tuple[int, int, int, int], ...]
# one class's counts with states 1 and 2 exchanged
_exchanged = itemgetter(0, 2, 1, 3)


class _Lattice:
    """The lcm lattice of an ideal, as orbits of its pattern's symmetry on
    integer codes.

    Encoder: an exponent is coded in unary by its rank among the distinct
    nonzero exponents its variable takes in the generators, in a field of
    one bit per level and at least one bit per variable: rank r is r low
    bits set, so exponent 0 is no bit and a weight of 10^9 is one bit when
    it is its variable's only level.  Ranks preserve order, so the lcm of
    two points is the OR of their codes.

    Group: with one level per variable, bit k is x_k and the ideal is its
    squarefree pattern under x_k -> x_k^{c_k}; the two lcm lattices are
    isomorphic (Gasharov-Peeva-Welker, The lcm-lattice in monomial
    resolutions, 1999).  When that pattern has block classes
    (_block_classes), the blocks of each class are interchangeable, and a
    point's state, the tuple of its classes' counts (_Blocks.counts), is
    its orbit under the block permutations.  The side swap (_side_swap)
    maps each class onto a class, so it normalizes the block permutations
    and acts on states: it reads each class's counts from the class's
    image, with states 1 and 2 exchanged.  An orbit of the whole group is
    a state and its swapped state, its canonical point is the smaller of
    their placements (_Blocks.place), and it is twice as large when the
    two states differ.  The block permutations and the swap are each
    checked once against the generators.  Every other ideal has no
    classes, and then the group is trivial: canonical, sizes and expand
    pass the points through, so each orbit is its one point.  On a crown
    on n pairs the group has 2 n! elements: n = 5 has 806 lattice points
    in 23 orbits, and n = 7 has 15,240 in 55.

    Orbits: a class lists the placements of its counts over its blocks from
    a table keyed by the counts still to place, which the orbits of one
    lattice share; a lattice is built per call, so no table outlives it.

    Closure: the group maps generators to generators, so the canonical
    points are the closure of the generators' own under p ->
    canonical(p | g) over every generator g.

    Decoder: the code is cut into runs of whole fields, each of at most 8
    bits or one wider field, and each run is read off a table from its
    bits to the exponents they stand for.
    """

    def __init__(self, ideal: MonomialIdeal):
        gens = [g.exponents for g in ideal.generators]
        # per variable: its bit offset, its width and the code in place of
        # each of its levels; a variable no generator holds takes one bit
        # that no code sets
        fields = []
        offset = 0
        for column in zip(*gens):
            code = {0: 0}
            for r, e in enumerate(sorted(set(column) - {0}), 1):
                code[e] = ((1 << r) - 1) << offset
            width = max(len(code) - 1, 1)
            fields.append((offset, width, code))
            offset += width
        places = [code for _, _, code in fields]
        self.codes = codes = frozenset(sum(map(getitem, places, g)) for g in gens)
        classes = []
        if codes and offset == len(fields) and all(c.bit_count() == 2 for c in codes):
            edges = ((c.bit_length() - 1, (c & -c).bit_length() - 1) for c in codes)
            classes = _block_classes(edges) or []
        self.classes = [_Blocks(blocks, offset) for blocks in classes]
        self.swap: Optional[list[int]] = None
        if classes:
            # the blocks hold every bit of the codes, so a code is a
            # placement of its state, and a group maps the generators onto
            # themselves exactly when their orbits, counted from their
            # states, hold no other point
            held = sum(blocks.a_bits[-1] | blocks.b_bits[-1] for blocks in self.classes)

            def orbit_points() -> int:
                return sum(self.sizes(list(self.canonical(codes))))

            if any(c & ~held for c in codes) or orbit_points() != len(codes):
                raise ValueError("the block action does not map the generators onto themselves")
            self.swap = _side_swap(classes)
            if self.swap and orbit_points() != len(codes):
                raise ValueError("the side swap does not map the generators onto themselves")
        # runs of whole fields, each of at most 8 bits or one wider field:
        # per run, its offset, its mask and its table from the run's bits to
        # their exponents, grown a field at a time as a byte table is, or,
        # for one wider field, from its valid codes alone
        self.tables = []
        for off, width, code in fields:
            if self.tables and off + width - self.tables[-1][0] <= 8:
                start, _, table = self.tables.pop()
            else:
                start, table = off, [()]
            if width > 8:
                table = {u >> off: (e,) for e, u in code.items()}
            else:
                values = [0] * (1 << width)
                for e, u in code.items():
                    values[u >> off] = e
                table = [t + (e,) for e in values for t in table]
            self.tables.append((start, (1 << off + width - start) - 1, table))

    def _states(self, points: Collection[int]) -> Iterator[_State]:
        """The state of each of these points: the counts of each class, the
        point's orbit under the block permutations."""
        return zip(*[map(blocks.counts, points) for blocks in self.classes])

    def _swapped(self, state: _State) -> _State:
        """The state under the side swap."""
        return tuple([_exchanged(state[c]) for c in self.swap])

    def _place(self, state: _State) -> int:
        """The canonical placement of the state; the classes' bits are
        disjoint, so their sum is their OR."""
        return sum(map(_Blocks.place, self.classes, state))

    def canonical(self, points: Iterable[int]) -> set[int]:
        """The canonical points of the orbits of these points."""
        points = set(points)
        if not self.classes:
            return points
        states = set(self._states(points))
        place, swapped = self._place, self._swapped
        if self.swap:
            return {min(place(s), place(swapped(s))) for s in states}
        return set(map(place, states))

    def closure(self) -> set[int]:
        """The canonical point of every orbit of the lattice.  More than
        MAX_LISTED_ENTRIES of them, or a round that reaches more lattice
        points than that, is a ValueError."""
        codes = self.codes
        points = frontier = self.canonical(codes)
        # a round joins the frontier to the generators a slice at a time, and
        # each slice adds at most about MAX_LISTED_ENTRIES points
        step = MAX_LISTED_ENTRIES // max(len(codes), 1) + 1
        while frontier:
            grown: set[int] = set()
            pending = iter(frontier)
            while len(grown) <= MAX_LISTED_ENTRIES and (chunk := list(islice(pending, step))):
                grown |= {p | g for p in chunk for g in codes}
            # points holds canonical points only, so a point of grown that is
            # in it is its own orbit's canonical point
            frontier = self.canonical(grown - points) - points
            points |= frontier
            if len(points) > MAX_LISTED_ENTRIES or len(grown) > MAX_LISTED_ENTRIES:
                raise _PastCap(f"the lcm lattice passes the cap of {MAX_LISTED_ENTRIES} points")
        return points

    def sizes(self, points: Sequence[int]) -> list[int]:
        """The number of points in the orbit of each of these canonical
        points."""
        if not self.classes:
            return [1] * len(points)
        sizes = []
        for state in self._states(points):
            size = prod(map(_Blocks.size, self.classes, state))
            # the swap normalizes the block permutations, so the swapped
            # orbit is as large, and it is another orbit or the same one
            sizes.append(size << (self.swap is not None and self._swapped(state) != state))
        return sizes

    def expand(self, points: Iterable[int]) -> Iterable[int]:
        """Every point of the orbits of these canonical points."""
        if not self.classes:
            return points
        out: list[int] = []
        for state in self._states(list(points)):
            for each in {state, self._swapped(state)} if self.swap else (state,):
                placed, *others = map(_Blocks.placed, self.classes, each)
                for masks in others:
                    placed = [q | m for m in masks for q in placed]
                out += placed
        return out

    def exponents(self, point: int) -> tuple[int, ...]:
        """The point's exponents in the ideal, a run of fields at a time."""
        out: tuple[int, ...] = ()
        for start, mask, table in self.tables:
            out += table[point >> start & mask]
        return out


def _check_same_ring(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.variables != b.variables:
        raise ValueError("ideals over different variable sets")
