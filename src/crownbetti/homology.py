"""Brute-force multigraded Betti numbers via upper Koszul complexes.

For a monomial ideal I and a multidegree a, the faces of the upper Koszul
complex at a are the squarefree vectors b <= supp(a) with x^(a-b) in I.
The rank of the (i-1)-st reduced homology of that complex over the chosen
field is the multigraded Betti number beta_{i,a}(I).  Only multidegrees in
the lcm lattice of I can carry a nonzero Betti number, so the oracle
evaluates exactly those.

Faces are bitmasks over a ground tuple of labels (supp(a) here).
Facet lemma: g divides x^(a-b) exactly when g divides x^a and b avoids
every k with g_k = a_k, so the faces at a are the submasks of the facets
F_g = {k in supp(a) : g_k < a_k} over the generators g dividing x^a.
The homology at a is therefore fixed by its key, the sorted maximal
facets, and many lattice points share one.  multigraded_betti keeps a
memo from key to ranks for the length of one call.

A memo miss never lists the faces of the complex itself.  When the AND
of the maximal facets is nonzero, they share a vertex and the complex is
a cone, with no homology.  Otherwise the miss takes the strong-collapse
core (Barmak-Minian): while some vertex v has another vertex w in every
maximal facet that contains v, v is deleted, which keeps the homotopy
type.  A core with one facet is a cone, or {Ø} when that facet is empty.
Many keys collapse to the same complex, so a core with more facets has
its N vertices moved, in order, onto bits 0..N-1, and a second memo of
the same call maps that relabelled core to its ranks.  So each distinct
core is reduced once per call.  On a miss there, on the N vertices of
the core, it lists the Alexander dual instead: the sets that contain no
tight set, the complement of a core facet.  Then H~_i(K) has the rank of
H~_{N-i-3} of the dual over any field (Miller-Sturmfels, Thm 5.6).  A
complex and its dual have 2^N faces between them, so the listing stops
once the dual passes 2^(N-1) faces and the core's own faces are reduced
instead: either way at most half the box is reduced.

When each variable takes one nonzero exponent among the generators and
the squarefree pattern is K_{A,B} minus a matching on a connected support
(ideals._block_orbits), the pattern's block permutations map the lcm
lattice onto itself and beta_{i,a} to beta_{i,sigma a}: the lattices of
the ideal and its pattern are isomorphic (Gasharov-Peeva-Welker).  Then
multigraded_betti takes the orbit path: the key and ranks are taken at
one canonical point per orbit, and each orbit with homology is expanded
into its entries.  Every other ideal takes the lattice path, one key per
point of lcm_lattice.

Homology comes from a reduction of the boundary matrices from the top
dimension down with clearing (Chen-Kerber's twist): a face that is a
pivot row of the boundary one dimension up is a cycle modulo earlier
columns, so its own column is skipped.  The lowest row of a face's
boundary column is the face minus its lowest bit, with entry +1; when no
earlier column owns that row, the face becomes its pivot unbuilt (an
emergent pair, as in Bauer's Ripser).  Sparse columns are built straight
from the face masks only when a later column collides with such a row or
must itself be reduced.  Ranks are exact in every characteristic below
2^64: one column reduction on Python integers serves F_p and, over
Fractions, Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Hashable, Iterable, Optional, Sequence

from . import ideals
from .ideals import MonomialIdeal, _block_orbits, lcm_lattice
from .multidegree import Multidegree, VariableSet

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
        column reduction behind _ranks finds.  Entries are
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
        lows = ((max(col), j) for j, col in columns.items())
        return len(self._pivots(lows, columns.__getitem__))

    def _pivots(
        self, columns: Iterable[tuple[int, Hashable]], build: Callable[[Hashable], dict[int, int]]
    ) -> dict[int, Hashable]:
        """Sparse column reduction on Python integers; returns the key of
        the column that owns each pivot row.

        ``columns`` gives each column as (its lowest row, its key), and
        ``build(key)`` makes the column itself as a fresh {row: coeff} with
        coefficients nonzero in the field.  A column whose lowest row no
        earlier column owns is an emergent pair: it becomes that row's
        pivot as it stands, and is built only if a later column collides
        with the row.  Any other column is built and cleared on its lowest
        (largest) row against the pivot for that row until it vanishes or
        leads on a new row.  Only reducing coefficients mod p and
        inverting a pivot entry depend on the field; over Q a pivot entry
        of +-1 is its own inverse, so Fractions appear only after some
        other pivot entry does.
        """
        p = self.characteristic
        if p:
            reduce, invert = (lambda c: c % p), (lambda c: pow(c, -1, p))
        else:
            reduce, invert = (lambda c: c), (lambda c: c if c in (1, -1) else Fraction(1, c))
        pivots: dict[int, Hashable] = {}
        # pivot row -> (inverse of the pivot entry, column), once built
        built: dict[int, tuple] = {}
        for low, key in columns:
            owner = pivots.get(low)
            if owner is None:
                pivots[low] = key
                continue
            col = build(key)
            while owner is not None:
                found = built.get(low)
                if found is None:
                    pivot = build(owner)
                    found = built[low] = (invert(pivot[low]), pivot)
                inv, pivot = found
                factor = reduce(col[low] * inv)
                for i, v in pivot.items():
                    c = reduce(col.get(i, 0) - factor * v)
                    if c:
                        col[i] = c
                    else:
                        del col[i]
                if not col:
                    break
                low = max(col)
                owner = pivots.get(low)
            else:  # the column leads on a row no column owns yet
                pivots[low] = key
                built[low] = (invert(col[low]), col)
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

    @property
    def faces(self) -> frozenset[frozenset[str]]:
        """The faces as label sets."""
        return frozenset(
            frozenset(v for k, v in enumerate(self.ground) if mask >> k & 1)
            for mask in self.masks
        )


def _sparse_generators(ideal: MonomialIdeal) -> list[tuple[tuple[int, int], ...]]:
    """Each generator as its (variable index, exponent) pairs with exponent > 0."""
    return [
        tuple((k, e) for k, e in enumerate(g.exponents) if e) for g in ideal.generators
    ]


def _facet_key(
    generators: Sequence[tuple[tuple[int, int], ...]], exps: tuple[int, ...]
) -> tuple[int, ...]:
    """The sorted maximal facets F_g, as bitmasks over supp(a), for the
    point a with exponents ``exps``; no facets means the void complex.

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
    return tuple(_maximal(facets))


def _maximal(sets: Iterable[int]) -> list[int]:
    """The inclusion-maximal masks among ``sets``, sorted."""
    maximal: list[int] = []
    for mask in sorted(set(sets), key=int.bit_count, reverse=True):
        for other in maximal:
            if mask | other == other:
                break
        else:
            maximal.append(mask)
    return sorted(maximal)


def _submasks(facets: Iterable[int]) -> list[int]:
    """The faces of the complex with these facets, sorted: every submask of
    a facet, the empty face 0 included unless there is no facet at all."""
    masks = set()
    for facet in facets:
        face = facet
        while face:
            masks.add(face)
            face = (face - 1) & facet
        masks.add(0)
    return sorted(masks)


def upper_koszul_complex(
    ideal: MonomialIdeal, a: Multidegree
) -> SimplicialComplexOnVars:
    """The label view of the oracle's facet key at the point a.

    Faces are the squarefree b within supp(a) such that x^(a-b) lies in I:
    by the facet lemma, the submasks of the facets F_g = {k in supp(a) :
    g_k < a_k} over the generators g dividing x^a (void if there are none).
    These are the faces of _facet_key(a), written over the labels supp(a)."""
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("upper Koszul complex requires a nonzero, non-unit ideal")
    if a.variables != ideal.variables:
        raise ValueError("multidegree over a different variable set")
    facets = _facet_key(_sparse_generators(ideal), a.exponents)
    # from a list, so the tuple is allocated at its final length: tuple() of
    # a generator shrinks a longer one, and the freed tuple then sits on
    # the interpreter's free list for its new length until a full collection
    ground = tuple([v for v, e in zip(a.variables.names, a.exponents) if e])
    return SimplicialComplexOnVars(ground, tuple(_submasks(facets)))


def _ranks(masks: Iterable[int], field: FieldSpec) -> dict[int, int]:
    """Reduced homology ranks, by dimension, of the nonvoid complex with
    these face masks (downward closed, so the empty face 0 is among them).
    The empty face sits in dimension -1, and zero ranks are omitted."""
    by_dim: dict[int, list[int]] = {}
    for mask in masks:
        by_dim.setdefault(mask.bit_count() - 1, []).append(mask)
    top = max(by_dim)
    # rank of the boundary map from dimension d to d-1, for d = 0 .. top+1
    boundary_rank = {top + 1: 0}
    # clearing: the pivot rows of the boundary one dimension up, by face
    cleared: dict[int, int] = {}
    for d in range(top, -1, -1):
        # a face's lowest boundary row is the face minus its lowest bit
        columns = [(mask & (mask - 1), mask) for mask in by_dim.get(d, ()) if mask not in cleared]
        cleared = field._pivots(columns, _boundary)
        boundary_rank[d] = len(cleared)
    ranks: dict[int, int] = {}
    for d in range(-1, top + 1):
        r = len(by_dim.get(d, ())) - boundary_rank.get(d, 0) - boundary_rank[d + 1]
        if r:
            ranks[d] = r
    return ranks


def _facet_ranks(
    facets: Sequence[int],
    field: FieldSpec,
    cores: dict[tuple[int, ...], dict[int, int]],
) -> dict[int, int]:
    """Reduced homology ranks of the complex whose maximal facets are
    ``facets`` (none: the void complex), from the smaller of its core's
    face set and the core's Alexander dual; see the module docstring.

    ``cores`` maps a core relabelled onto bits 0..N-1 to its ranks.  The
    caller owns it: one dict per table and field, shared by the keys of
    that table."""
    common = -1
    for facet in facets:
        common &= facet
    if common:  # the facets share a vertex (a cone), or there are none (void)
        return {}
    core = _strong_core(facets)
    if len(core) == 1:
        return {-1: 1} if core[0] == 0 else {}
    support = 0
    for facet in core:
        support |= facet
    n = support.bit_count()
    full = (1 << n) - 1
    if support != full:
        core = _relabel(core, support)
    key = tuple(core)
    ranks = cores.get(key)
    if ranks is None:
        dual = _dual_faces(full, core, 1 << (n - 1))
        if dual is None:
            ranks = _ranks(_submasks(core), field)
        else:
            ranks = {n - j - 3: r for j, r in _ranks(dual, field).items()}
        cores[key] = ranks
    return ranks


def _relabel(masks: Sequence[int], support: int) -> list[int]:
    """The masks with the vertices of ``support`` moved, in order, onto
    bits 0..N-1; the map keeps the masks' numeric order."""
    out = [0] * len(masks)
    target = 1
    while support:
        bit = support & -support
        support ^= bit
        for j, mask in enumerate(masks):
            if mask & bit:
                out[j] |= target
        target <<= 1
    return out


def _strong_core(facets: Sequence[int]) -> list[int]:
    """The maximal facets left once no vertex is dominated.

    A vertex v is dominated when some other vertex lies in every maximal
    facet that contains v; deleting it is a strong collapse.  The loop
    stops early at a single facet, whose complex is a cone or {Ø}.
    """
    facets = list(facets)
    collapsed = True
    while collapsed and len(facets) > 1:
        collapsed = False
        support = 0
        for facet in facets:
            support |= facet
        while support and len(facets) > 1:
            bit = support & -support
            support ^= bit
            common = -1
            for facet in facets:
                if facet & bit:
                    common &= facet
            if common != bit:
                facets = _maximal([facet & ~bit for facet in facets])
                collapsed = True
    return facets


def _dual_faces(support: int, facets: Sequence[int], limit: int) -> Optional[list[int]]:
    """The faces of the Alexander dual, on the vertex set ``support``, of
    the complex with these facets, sorted; None once there are more than
    ``limit``.

    The dual's faces are the sets that contain no tight set, the
    complement of a facet.  They are listed vertex by vertex: each face
    over the vertices below v is kept, and kept again with v added unless
    that completes a tight set whose highest vertex is v.  Every set listed
    on the way is a face, so the list stops growing at the first vertex
    that takes it past the limit.
    """
    # each tight set without its highest vertex, by that vertex
    rests: dict[int, list[int]] = {}
    for facet in facets:
        tight = support ^ facet
        top = 1 << (tight.bit_length() - 1)
        rests.setdefault(top, []).append(tight ^ top)
    faces = [0]
    while support:
        bit = support & -support
        support ^= bit
        grown = faces
        for rest in rests.get(bit, ()):
            grown = [face for face in grown if rest & face != rest]
        faces += [face | bit for face in grown]
        if len(faces) > limit:
            return None
    return faces


def _boundary(mask: int) -> dict[int, int]:
    """The boundary column of a face, {face minus one vertex: +-1}, with
    +1 at its lowest row, the face minus its lowest bit."""
    col, sign, rest = {}, 1, mask
    while rest:
        bit = rest & -rest
        col[mask ^ bit] = sign
        sign, rest = -sign, rest ^ bit
    return col


def _graded_summary(graded: dict[tuple[int, int], int]) -> tuple[int, int, list[int]]:
    """pdim, regularity and the total Betti numbers b_0..b_pdim, read off
    the graded Betti numbers."""
    if not graded:
        raise ValueError("no graded Betti numbers")
    pdim = max(i for i, _ in graded)
    totals = [0] * (pdim + 1)
    for (i, _), c in graded.items():
        totals[i] += c
    return pdim, max(j - i for i, j in graded), totals


@dataclass(frozen=True)
class BettiTable:
    """Multigraded Betti numbers: (homological index, multidegree) -> count.

    Zero entries are never stored.  graded() aggregates by total degree;
    pdim, regularity and the total Betti numbers are read off those graded
    numbers by _graded_summary, the same rule the text and JSON reports use.
    """

    variables: VariableSet
    entries: dict[tuple[int, Multidegree], int]

    def __post_init__(self):
        variables = self.variables
        for (i, a), c in self.entries.items():
            if c <= 0:
                raise ValueError(f"zero/negative multiplicity at ({i}, {a})")
            if i < 0:
                raise ValueError(f"negative homological index {i}")
            if a.variables is not variables and a.variables != variables:
                raise ValueError("entry multidegree over a different variable set")

    def entry(self, i: int, a: Multidegree) -> int:
        return self.entries.get((i, a), 0)

    def differences(self, other: BettiTable) -> list[tuple[int, Multidegree]]:
        """The sorted keys (i, a) at which the two tables differ (a key
        carries its variable set); empty exactly when the tables are equal."""
        mine, theirs = self.entries, other.entries
        return sorted(k for k in mine.keys() | theirs.keys() if mine.get(k) != theirs.get(k))

    def graded(self) -> dict[tuple[int, int], int]:
        """Graded Betti numbers beta_{i,j}, aggregating by total degree."""
        if not self.entries:
            raise ValueError("empty Betti table")
        out: dict[tuple[int, int], int] = {}
        for (i, a), c in self.entries.items():
            key = (i, sum(a.exponents))
            out[key] = out.get(key, 0) + c
        return out

    def total(self) -> dict[int, int]:
        return {i: b for i, b in enumerate(self.total_sequence()) if b}

    def total_sequence(self) -> list[int]:
        return _graded_summary(self.graded())[2]

    def pdim(self) -> int:
        return _graded_summary(self.graded())[0]

    def regularity(self) -> int:
        return _graded_summary(self.graded())[1]

    def quotient_shifted(self) -> BettiTable:
        """Presentation as Betti numbers of R/I: the index shifts up by one.

        The rank-one entry of R itself in homological degree 0 is not
        represented (it has multidegree 0 and is constant across ideals).
        """
        return BettiTable(
            self.variables, {(i + 1, a): c for (i, a), c in self.entries.items()}
        )


def multigraded_betti(ideal: MonomialIdeal, field: FieldSpec = FieldSpec()) -> BettiTable:
    """Complete multigraded Betti table of a nonzero, non-unit monomial ideal,
    evaluated at the points of its lcm lattice, or at one point per orbit of
    its pattern's block permutations (see the module docstring).  A lattice
    or a table past MAX_LISTED_ENTRIES points or entries is a ValueError."""
    if ideal.is_zero() or ideal.is_unit():
        raise ValueError("Betti numbers computed only for nonzero, non-unit ideals")
    generators = _sparse_generators(ideal)
    memo: dict[tuple[int, ...], dict[int, int]] = {}
    cores: dict[tuple[int, ...], dict[int, int]] = {}
    entries: dict[tuple[int, Multidegree], int] = {}

    def ranks_at(exps: tuple[int, ...]) -> dict[int, int]:
        key = _facet_key(generators, exps)
        ranks = memo.get(key)
        if ranks is None:
            ranks = memo[key] = _facet_ranks(key, field, cores)
        return ranks

    orbits = _block_orbits(ideal)
    if orbits is None:
        for a in lcm_lattice(ideal):
            for d, r in ranks_at(a.exponents).items():
                entries[(d + 1, a)] = r
        return BettiTable(ideal.variables, entries)
    found = []
    for point in orbits.representatives():
        ranks = ranks_at(orbits.exponents(point))
        if ranks:
            found.append((point, ranks))
    count = sum(orbits.size(point) * len(ranks) for point, ranks in found)
    if count > ideals.MAX_LISTED_ENTRIES:
        raise ValueError(
            f"the table has {count} multigraded entries, above the cap of "
            f"{ideals.MAX_LISTED_ENTRIES}"
        )
    variables, exponents = ideal.variables, orbits.exponents
    for point, ranks in found:
        for mask in orbits.orbit(point):
            a = Multidegree(variables, exponents(mask))
            for d, r in ranks.items():
                entries[(d + 1, a)] = r
    return BettiTable(variables, entries)
