"""Brute-force multigraded Betti numbers via upper Koszul complexes.

For a monomial ideal I and a multidegree a, the faces of the upper Koszul
complex at a are the squarefree vectors b <= supp(a) with x^(a-b) in I.
The rank of the (i-1)-st reduced homology of that complex over the chosen
field is the multigraded Betti number beta_{i,a}(I).  Only multidegrees in
the lcm lattice of I can carry a nonzero Betti number, so the oracle
evaluates exactly those (an audit mode sweeps the whole box below the lcm
of all generators instead).

Faces are bitmasks over a ground tuple of labels (supp(a) here).
Facet lemma: g divides x^(a-b) exactly when g divides x^a and b avoids
every k with g_k = a_k, so the faces at a are the submasks of the facets
F_g = {k in supp(a) : g_k < a_k} over the generators g dividing x^a.
The complex at a is therefore fixed by its key (|supp(a)|, sorted maximal
facets), and many lattice points share one.  multigraded_betti keeps a
memo from key to ranks for the length of one call, so each distinct
complex has its faces enumerated and its homology computed once.

Homology comes from sparse boundary columns built straight from the face
masks, reduced from the top dimension down with clearing (Chen-Kerber's
twist): a face that is a pivot row of the boundary one dimension up is a
cycle modulo earlier columns, so its own column is skipped.  Ranks are
exact in every characteristic below 2^64: one column reduction on Python
integers serves F_p and, over Fractions, Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian_product
from operator import index
from typing import Iterable, Sequence

from .ideals import MonomialIdeal, lcm_lattice
from .multidegree import Multidegree, VariableSet, lcm_of

DEFAULT_PRIME = 32003
# Deterministic Miller-Rabin: these bases decide primality of every c < 2^64.
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(c: int) -> bool:
    if c < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if c % q == 0:
            return c == q
    d, s = c - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, c)
        if x in (1, c - 1):
            continue
        for _ in range(s - 1):
            x = x * x % c
            if x == c - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The coefficient field: characteristic 0 (rationals) or a prime p < 2^64."""

    characteristic: int = DEFAULT_PRIME

    def __post_init__(self):
        c = self.characteristic
        if not isinstance(c, int) or isinstance(c, bool):
            raise ValueError(f"characteristic must be an integer, got {c!r}")
        if c >= 1 << 64:
            raise ValueError(f"characteristic must be below 2^64, got {c}")
        if c != 0 and not _is_prime(c):
            raise ValueError(f"characteristic must be 0 or prime, got {c}")

    def rank(self, matrix: Sequence[Sequence[int]]) -> int:
        """Exact rank of an integer matrix given as a sequence of rows.

        A thin adapter: the rows become sparse columns of the entries that
        are nonzero in the field, and the rank is the number of pivots the
        column reduction behind reduced_homology_ranks finds.  Entries are
        taken as Python integers (operator.index), so fixed-width integer
        types cannot overflow and non-integers are refused.
        """
        p = self.characteristic
        columns: dict[int, dict[int, int]] = {}
        for i, row in enumerate(matrix):
            for j, v in enumerate(row):
                v = index(v) % p if p else index(v)
                if v:
                    columns.setdefault(j, {})[i] = v
        return len(self._pivots(columns.values()))

    def _pivots(self, columns: Iterable[dict[int, int]]) -> dict[int, tuple]:
        """Sparse column reduction on Python integers; returns, by pivot
        row, the inverse of the pivot entry and the reduced column.

        Each column, held as {row: coeff} with coefficients nonzero in the
        field, is cleared on its lowest (largest) row against the stored
        column for that row until it vanishes or leads on a new row.  Only
        reducing coefficients mod p and inverting a pivot entry depend on
        the field; over Q a pivot entry of +-1 is its own inverse, so
        Fractions appear only after some other pivot entry does.
        """
        p = self.characteristic
        if p:
            reduce, invert = (lambda c: c % p), (lambda c: pow(c, -1, p))
        else:
            reduce, invert = (lambda c: c), (lambda c: c if c in (1, -1) else Fraction(1, c))
        pivots: dict[int, tuple] = {}
        for col in columns:
            while col:
                low = max(col)
                found = pivots.get(low)
                if found is None:
                    pivots[low] = (invert(col[low]), col)
                    break
                inv, pivot = found
                factor = reduce(col[low] * inv)
                for i, v in pivot.items():
                    c = reduce(col.get(i, 0) - factor * v)
                    if c:
                        col[i] = c
                    else:
                        del col[i]
        return pivots


@dataclass(frozen=True)
class SimplicialComplexOnVars:
    """Simplicial complex on a tuple of variable labels.

    A face is a bitmask over ``ground``: bit k stands for ``ground[k]``.
    ``masks`` is sorted and downward closed, so it contains the empty face 0
    whenever the complex is nonvoid; the void complex has no faces at all.
    """

    ground: tuple[str, ...]
    masks: tuple[int, ...]

    @classmethod
    def from_faces(
        cls, ground: Sequence[str], faces: Iterable[Iterable[str]]
    ) -> SimplicialComplexOnVars:
        """The complex on ``ground`` whose faces are the given label sets."""
        pos = {v: k for k, v in enumerate(ground)}
        try:
            masks = {sum(1 << pos[v] for v in face) for face in faces}
        except KeyError as exc:
            raise ValueError(f"face label {exc} is not in the ground set") from None
        if any(m & ~(1 << k) not in masks for m in masks for k in range(len(pos))):
            raise ValueError("face set is not downward closed")
        return cls(tuple(ground), tuple(sorted(masks)))

    @property
    def faces(self) -> frozenset[frozenset[str]]:
        """The faces as label sets."""
        return frozenset(
            frozenset(v for k, v in enumerate(self.ground) if mask >> k & 1)
            for mask in self.masks
        )

    def is_void(self) -> bool:
        return not self.masks


def _sparse_generators(ideal: MonomialIdeal) -> list[tuple[tuple[int, int], ...]]:
    """Each generator as its (variable index, exponent) pairs with exponent > 0."""
    return [
        tuple((k, e) for k, e in enumerate(g.exponents) if e) for g in ideal.generators
    ]


def _facet_key(
    generators: Sequence[tuple[tuple[int, int], ...]], exps: tuple[int, ...]
) -> tuple[int, tuple[int, ...]]:
    """(|supp(a)|, sorted maximal facets F_g as bitmasks over supp(a)) for
    the point a with exponents ``exps``; no facets means the void complex.

    F_g is supp(a) minus the k with g_k = a_k, which lie in supp(g)."""
    pos: dict[int, int] = {}
    for k, e in enumerate(exps):
        if e:
            pos[k] = len(pos)
    full = (1 << len(pos)) - 1
    facets = set()
    for g in generators:
        facet = full
        for k, e in g:
            if exps[k] < e:
                break
            if exps[k] == e:
                facet ^= 1 << pos[k]
        else:
            facets.add(facet)
    maximal: list[int] = []
    for facet in sorted(facets, key=int.bit_count, reverse=True):
        if all(facet | other != other for other in maximal):
            maximal.append(facet)
    return len(pos), tuple(sorted(maximal))


def _koszul_complex(
    names: Sequence[str], exps: tuple[int, ...], facets: tuple[int, ...]
) -> SimplicialComplexOnVars:
    """The complex on supp(a) whose faces are the submasks of ``facets``."""
    masks = set()
    for facet in facets:
        face = facet
        while face:
            masks.add(face)
            face = (face - 1) & facet
    if facets:
        masks.add(0)
    ground = tuple(v for v, e in zip(names, exps) if e)
    return SimplicialComplexOnVars(ground, tuple(sorted(masks)))


def upper_koszul_complex(
    ideal: MonomialIdeal, a: Multidegree
) -> SimplicialComplexOnVars:
    """Faces are the squarefree b within supp(a) such that x^(a-b) lies in I:
    by the facet lemma, the submasks of the facets F_g = {k in supp(a) :
    g_k < a_k} over the generators g dividing x^a (void if there are none)."""
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("upper Koszul complex requires a nonzero, non-unit ideal")
    if a.variables != ideal.variables:
        raise ValueError("multidegree over a different variable set")
    _, facets = _facet_key(_sparse_generators(ideal), a.exponents)
    return _koszul_complex(a.variables.names, a.exponents, facets)


def reduced_homology_ranks(
    complex_: SimplicialComplexOnVars, field: FieldSpec
) -> dict[int, int]:
    """Reduced homology ranks by dimension, empty face at dimension -1.

    The void complex has no homology at all; the complex {Ø} has rank 1
    in dimension -1.  Zero ranks are omitted from the result.
    """
    if complex_.is_void():
        return {}
    by_dim: dict[int, list[int]] = {}
    for mask in complex_.masks:
        by_dim.setdefault(mask.bit_count() - 1, []).append(mask)
    if -1 not in by_dim:
        raise ValueError("nonvoid complex must contain the empty face")
    top = max(by_dim)
    # rank of the boundary map from dimension d to d-1, for d = 0 .. top+1
    boundary_rank = {top + 1: 0}
    # clearing: the pivot rows of the boundary one dimension up, by face
    cleared: dict[int, tuple] = {}
    for d in range(top, -1, -1):
        columns = []
        for mask in by_dim.get(d, ()):
            if mask in cleared:
                continue
            col, sign, rest = {}, 1, mask
            while rest:
                bit = rest & -rest
                col[mask ^ bit] = sign
                sign, rest = -sign, rest ^ bit
            columns.append(col)
        cleared = field._pivots(columns)
        boundary_rank[d] = len(cleared)
    ranks: dict[int, int] = {}
    for d in range(-1, top + 1):
        r = len(by_dim.get(d, ())) - boundary_rank.get(d, 0) - boundary_rank[d + 1]
        if r:
            ranks[d] = r
    return ranks


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers: (homological index, multidegree) -> count.

    Zero entries are never stored.  Aggregations to graded and total Betti
    numbers, projective dimension and regularity live here.
    """

    variables: VariableSet
    entries: dict[tuple[int, Multidegree], int]

    def __post_init__(self):
        for (i, a), c in self.entries.items():
            if c <= 0:
                raise ValueError(f"zero/negative multiplicity at ({i}, {a})")
            if i < 0:
                raise ValueError(f"negative homological index {i}")
            if a.variables != self.variables:
                raise ValueError("entry multidegree over a different variable set")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.variables == other.variables and self.entries == other.entries

    def __hash__(self):
        return hash((self.variables, frozenset(self.entries.items())))

    def entry(self, i: int, a: Multidegree) -> int:
        return self.entries.get((i, a), 0)

    def is_empty(self) -> bool:
        return not self.entries

    def graded(self) -> dict[tuple[int, int], int]:
        """Graded Betti numbers beta_{i,j}, aggregating by total degree."""
        self._require_nonempty()
        out: dict[tuple[int, int], int] = {}
        for (i, a), c in self.entries.items():
            key = (i, a.degree())
            out[key] = out.get(key, 0) + c
        return out

    def total(self) -> dict[int, int]:
        self._require_nonempty()
        out: dict[int, int] = {}
        for (i, _), c in self.entries.items():
            out[i] = out.get(i, 0) + c
        return out

    def total_sequence(self) -> list[int]:
        t = self.total()
        return [t.get(i, 0) for i in range(max(t) + 1)]

    def pdim(self) -> int:
        self._require_nonempty()
        return max(i for i, _ in self.entries)

    def regularity(self) -> int:
        self._require_nonempty()
        return max(a.degree() - i for (i, a) in self.entries)

    def quotient_shifted(self) -> BettiTable:
        """Presentation as Betti numbers of R/I: the index shifts up by one.

        The rank-one entry of R itself in homological degree 0 is not
        represented (it has multidegree 0 and is constant across ideals).
        """
        return BettiTable(
            self.variables, {(i + 1, a): c for (i, a), c in self.entries.items()}
        )

    def _require_nonempty(self) -> None:
        if not self.entries:
            raise ValueError("empty Betti table")


def multigraded_betti(
    ideal: MonomialIdeal,
    field: FieldSpec = FieldSpec(),
    audit_full_box: bool = False,
) -> BettiTable:
    """Complete multigraded Betti table of a nonzero, non-unit monomial ideal.

    By default only lcm-lattice multidegrees are evaluated; with
    ``audit_full_box`` every multidegree componentwise below the lcm of all
    generators is evaluated, as a cross-check of the lattice restriction.
    """
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("Betti numbers computed only for nonzero, non-unit ideals")
    if audit_full_box:
        top = lcm_of(ideal.generators)
        points = [
            Multidegree(ideal.variables, exps)
            for exps in cartesian_product(*(range(e + 1) for e in top.exponents))
            if any(exps)
        ]
    else:
        points = sorted(lcm_lattice(ideal))
    generators = _sparse_generators(ideal)
    names = ideal.variables.names
    memo: dict[tuple[int, tuple[int, ...]], dict[int, int]] = {}
    entries: dict[tuple[int, Multidegree], int] = {}
    for a in points:
        key = _facet_key(generators, a.exponents)
        ranks = memo.get(key)
        if ranks is None:
            complex_ = _koszul_complex(names, a.exponents, key[1])
            ranks = memo[key] = reduced_homology_ranks(complex_, field)
        for d, r in ranks.items():
            entries[(d + 1, a)] = r
    return BettiTable(ideal.variables, entries)
