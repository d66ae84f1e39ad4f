"""Monomial ideals: minimal generators, membership, colon, sum, product,
intersection, dominance, and the lcm lattice.

The lcm lattice is closed on plain ints: an exponent is coded in unary by
its rank among the distinct nonzero exponents of its variable, so that
componentwise max is bitwise OR and a huge weight is still one bit.  The
closure stops once it passes MAX_LISTED_ENTRIES points.

When each variable takes one nonzero exponent c_k among the generators,
the ideal is its squarefree pattern under x_k -> x_k^{c_k}, and the two
lcm lattices are isomorphic (Gasharov-Peeva-Welker, The lcm-lattice in
monomial resolutions, 1999).  When that pattern is a complete bipartite
graph K_{A,B} minus a matching, on a connected support, its blocks of
variables (the matched pairs (a, b), the unmatched a's and the unmatched
b's) are interchangeable within their class, and _BlockOrbits closes the
lattice over one canonical point per orbit of those block permutations."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterable, Optional

from .multidegree import (
    Multidegree,
    VariableSet,
    divides,
    gcd,
    lcm,
    quotient,
)

# the most points an lcm lattice may have, and the most multigraded entries
# a table may list or compute: a crown table has about 3^n entries, 849,699
# at n = 10 and 3,540,670 at n = 11
MAX_LISTED_ENTRIES = 10**6


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
    """All lcms of nonempty subsets of the minimal generators.

    Computed as a closure that avoids enumerating 2^m subsets.  Each
    exponent is coded in unary by its rank among the distinct nonzero
    exponents its variable takes in the generators, one bit field per
    variable: rank r is r low bits set, so exponent 0 is no bit and a
    weight of 10^9 is still a single bit when it is its variable's only
    level.  Ranks preserve order, so componentwise max is bitwise OR and
    the closure runs on plain ints.  A point is decoded once, by the bit
    count of each field, into the Multidegree that is returned.

    A lattice of more than MAX_LISTED_ENTRIES points is a ValueError: the
    closure stops at the slice of a round that passes the cap.
    """
    gens = [g.exponents for g in ideal.generators]
    # per variable: (bit offset, field mask, exponent by rank)
    fields = []
    offset = 0
    for k in range(len(ideal.variables)):
        levels = (0, *sorted({g[k] for g in gens} - {0}))
        width = len(levels) - 1
        fields.append((offset, (1 << width) - 1, levels))
        offset += width
    codes = {
        sum(((1 << levels.index(e)) - 1) << off for e, (off, _, levels) in zip(g, fields))
        for g in gens
    }
    points, frontier = set(codes), codes
    # a round joins the frontier to the generators a slice at a time, and
    # each slice adds at most about MAX_LISTED_ENTRIES points
    step = MAX_LISTED_ENTRIES // max(len(codes), 1) + 1
    while frontier:
        grown: set[int] = set()
        pending = iter(frontier)
        while len(grown) <= MAX_LISTED_ENTRIES and (chunk := list(islice(pending, step))):
            grown |= {p | g for p in chunk for g in codes}
        frontier = grown - points
        points |= frontier
        if len(points) > MAX_LISTED_ENTRIES or len(grown) > MAX_LISTED_ENTRIES:
            raise ValueError(f"the lcm lattice passes the cap of {MAX_LISTED_ENTRIES} points")
    return frozenset(
        Multidegree(
            ideal.variables,
            tuple([levels[(p >> off & mask).bit_count()] for off, mask, levels in fields]),
        )
        for p in points
    )


def _levels(ideal: MonomialIdeal) -> Optional[tuple[frozenset[int], tuple[int, ...]]]:
    """The squarefree pattern of the ideal, each generator as the mask of
    its support (bit k: x_k), and each variable's level c_k, the one
    nonzero exponent it takes among the generators (0 if none holds it);
    None when some variable takes two.  The ideal is its pattern under
    x_k -> x_k^{c_k}, and the masks are as many as the generators."""
    levels = [0] * len(ideal.variables)
    pattern = set()
    for g in ideal.generators:
        mask = 0
        for k, e in enumerate(g.exponents):
            if e:
                if levels[k] != e:
                    if levels[k]:
                        return None
                    levels[k] = e
                mask |= 1 << k
        pattern.add(mask)
    return frozenset(pattern), tuple(levels)


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


def _transpose(mask: int, blocks: tuple[tuple[int, int], tuple[int, int]]) -> int:
    """The mask with the variables of two blocks (a, b) and (c, d)
    exchanged: a with c, b with d."""
    (a, b), (c, d) = blocks
    for i, j in {(a, c), (b, d)}:
        if (mask >> i ^ mask >> j) & 1:
            mask ^= 1 << i | 1 << j
    return mask


class _BlockOrbits:
    """The lcm lattice of an ideal of one level per variable whose pattern
    has the given block classes, by orbits of the block permutations.

    A point is a mask over the variables, bit k set when x_k divides it.
    On a block (a, b) it is in state 0..3, (bit a) + 2 (bit b); an
    unmatched vertex (v, v) is in state 0 or 3.  An orbit is fixed by the
    number of blocks of each class in each state, and its canonical point
    puts each class's states in block order from the highest down.  The
    group maps generators to generators, so the canonical points of the
    lattice are the closure of the generators' own under
    p -> canonical(p | g) over every generator g.

    The states are counted on a layout word: class c's blocks r hold bit
    off_c + r for their a and off_c + k_c + r for their b, so the counts
    are three bit counts per class.  A point is gathered onto the layout,
    and decoded to exponents, a byte of the mask at a time.
    """

    def __init__(self, levels: tuple[int, ...], codes: frozenset[int], classes):
        for blocks in classes:
            for pair in zip(blocks, blocks[1:]):
                if {_transpose(g, pair) for g in codes} != codes:
                    raise ValueError(
                        f"the block action does not map the generators onto themselves: "
                        f"blocks {pair[0]} and {pair[1]}"
                    )
        self.codes = codes
        layout = [0] * len(levels)
        # per class: a's offset, b's offset, the block count, the a's and
        # the b's of its first r blocks for r = 0..k, each block's states
        self.classes = []
        offset = 0
        for blocks in classes:
            k = len(blocks)
            a_bits, b_bits, spread = [0], [0], []
            for r, (a, b) in enumerate(blocks):
                layout[a] |= 1 << offset + r
                layout[b] |= 1 << offset + k + r
                a_bits.append(a_bits[-1] | 1 << a)
                b_bits.append(b_bits[-1] | 1 << b)
                spread.append((0, 1 << a, 1 << b, 1 << a | 1 << b))
            self.classes.append((offset, offset + k, k, a_bits, b_bits, spread))
            offset += 2 * k
        # eight variables at a time, by the byte of the mask: the layout
        # bits, and the exponents (x_k's level where bit k is set)
        self.gathers, self.tables = [], []
        for start in range(0, len(levels), 8):
            gather, table = [0], [()]
            for bits, c in zip(layout[start:start + 8], levels[start:start + 8]):
                gather += [g | bits for g in gather]
                table = [t + (0,) for t in table] + [t + (c,) for t in table]
            self.gathers.append((start, gather))
            self.tables.append((start, table))

    def _counts(self, point: int) -> list[tuple[int, int, int, int]]:
        """Per class, the number of its blocks in state 0, 1, 2 and 3."""
        word = 0
        for start, gather in self.gathers:
            word |= gather[point >> start & 255]
        out = []
        for a_off, b_off, k, _, _, _ in self.classes:
            full = (1 << k) - 1
            a, b = word >> a_off & full, word >> b_off & full
            both = (a & b).bit_count()
            one, two = a.bit_count() - both, b.bit_count() - both
            out.append((k - both - one - two, one, two, both))
        return out

    def canonical(self, point: int) -> int:
        """The orbit's canonical point: blocks in state 3, then 2, then 1."""
        out = 0
        for (_, one, two, both), (_, _, _, a_bits, b_bits, _) in zip(
            self._counts(point), self.classes
        ):
            mid = both + two
            out |= a_bits[both] | b_bits[mid] | (a_bits[mid + one] ^ a_bits[mid])
        return out

    def representatives(self) -> set[int]:
        """The canonical point of every orbit of the lattice."""
        canonical, codes = self.canonical, self.codes
        points = {canonical(g) for g in codes}
        frontier = set(points)
        while frontier:
            frontier = {canonical(q) for q in {p | g for p in frontier for g in codes}} - points
            points |= frontier
        return points

    def size(self, point: int) -> int:
        """The number of points in the orbit of `point`."""
        out = 1
        for zero, one, two, both in self._counts(point):
            k = zero + one + two + both
            out *= comb(k, both) * comb(k - both, two) * comb(zero + one, one)
        return out

    def orbit(self, point: int) -> list[int]:
        """Every point of the orbit of `point`: each class's states placed
        over its blocks in every distinct order.  The placements grow block
        by block, grouped by the states still to place; a class whose
        blocks share one state has the point's own bits."""
        masks = [0]
        for counts, (_, _, k, a_bits, b_bits, spread) in zip(self._counts(point), self.classes):
            if k in counts:
                bits = point & (a_bits[k] | b_bits[k])
                masks = [m | bits for m in masks]
                continue
            layer = {counts: masks}
            for row in spread:
                grown: dict[tuple[int, ...], list[int]] = {}
                for left, partial in layer.items():
                    for s, bit in enumerate(row):
                        if left[s]:
                            grown.setdefault(left[:s] + (left[s] - 1,) + left[s + 1:], []).extend(
                                [m | bit for m in partial] if bit else partial
                            )
                layer = grown
            (masks,) = layer.values()
        return masks

    def exponents(self, point: int) -> tuple[int, ...]:
        """The point's exponents in the ideal: x_k's level where bit k is set."""
        out: tuple[int, ...] = ()
        for start, table in self.tables:
            out += table[point >> start & 255]
        return out


def _block_orbits(ideal: MonomialIdeal) -> Optional[_BlockOrbits]:
    """The orbit view of the ideal's lcm lattice, or None unless each
    variable has one level and the pattern is K_{A,B} minus a matching
    with every generator on two variables and a connected support."""
    found = _levels(ideal)
    if found is None:
        return None
    codes, levels = found
    if any(code.bit_count() != 2 for code in codes):
        return None
    classes = _block_classes(
        (code.bit_length() - 1, (code & -code).bit_length() - 1) for code in codes
    )
    return None if classes is None else _BlockOrbits(levels, codes, classes)


def _check_same_ring(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.variables != b.variables:
        raise ValueError("ideals over different variable sets")
