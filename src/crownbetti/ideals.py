"""Monomial ideals: minimal generators, membership, colon, sum, product,
intersection, dominance, and the lcm lattice.

The lcm lattice is closed on plain ints: an exponent is coded in unary by
its rank among the distinct nonzero exponents of its variable, so that
componentwise max is bitwise OR and a huge weight is still one bit."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .multidegree import (
    Multidegree,
    VariableSet,
    divides,
    gcd,
    lcm,
    quotient,
)


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
    while frontier:
        frontier = {p | g for p in frontier for g in codes} - points
        points |= frontier
    return frozenset(
        Multidegree(
            ideal.variables,
            tuple([levels[(p >> off & mask).bit_count()] for off, mask, levels in fields]),
        )
        for p in points
    )


def _check_same_ring(a: MonomialIdeal, b: MonomialIdeal) -> None:
    if a.variables != b.variables:
        raise ValueError("ideals over different variable sets")
