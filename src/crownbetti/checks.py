"""Verification routines pairing the closed forms with the homology oracle.

Each check returns a list of human-readable failure strings; an empty list
means the check passed.  The CLI ``verify`` command and the acceptance
tests are both built on these.

The oracle is compared with the closed form orbit by orbit, with no
table built on either side (_orbit_comparison, which crown --mode both
and family --oracle share): both are constant on the orbits of the lcm
lattice under the shape's symmetry.  I is compared with J + K + shifted
J ∩ K whole, by ``BettiTable.differences``.  Each induced subgraph G[W]
is compared with the full table's entries supported in W, and only a W
that fails builds that restriction as a table to list its differences.
That restriction and the support implication (an entry with supp(a) = W
sits at i = pdim I(G[W])) share one walk over the vertex subsets W,
check_induced_subgraphs, which works on support bitmasks: I(G[W]) is the
crown's generators inside W, and the full entries inside W are read off
one index by support, over the submasks of W.  It computes each table of
I(G[W]) once and returns both failure lists; ``verify`` prints them as
two checks.  The colon chain behind the mapping-cone bound is checked by
ideal arithmetic alone.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .formulas import (
    _point_entry,
    regularity_formula,
    shape_entry_count,
    shape_graded_formula,
    total_betti_closed_form,
)
from .graphs import _family_shape, _xy_graph, crown, edge_ideal
from .homology import BettiTable, FieldSpec, _graded_summary, _orbits, multigraded_betti
from .ideals import MonomialIdeal, _Lattice, colon_by_monomial, ideal_intersect, minimalize, scale
from .multidegree import Multidegree, binomial, divides
from .splitting import (
    _NotASplit,
    _splitting_tables,
    crown_splitting,
    mapping_cone_upper_bound,
    splitting_violation,
)


def _orbit_comparison(
    shape: tuple[int, int, int], weights: Sequence[int], field: FieldSpec
) -> tuple[list[str], list[int]]:
    """The oracle against the closed form of the shape (m, s, t), orbit by
    orbit, with no table built on either side.

    Both sides are constant on the orbits of the lcm lattice under the
    shape's symmetry, so at each canonical point the oracle's ranks
    (_orbits) are checked against the entry _point_entry puts there, and
    the oracle's entry count, the sum of size * (number of ranks) over the
    orbits, against shape_entry_count: the closed form has no entry off
    the lattice exactly when the two counts agree.  Returns the failure
    lines, in orbit order with the count's last, and the oracle's total
    Betti numbers b_0, b_1, ..., each the sum of size * rank at its index."""
    ideal = edge_ideal(_xy_graph(*shape, weights))
    failures: list[str] = []
    totals: list[int] = []
    count = 0
    for _, exps, size, ranks in _orbits(ideal, _Lattice(ideal), field):
        found = {d + 1: r for d, r in ranks.items()}
        entry = _point_entry(*shape, weights, exps)
        expected = dict([entry]) if entry else {}
        if found != expected:
            a = Multidegree(ideal.variables, exps)
            failures += [
                f"beta_({i}, {a}) oracle={found.get(i, '-')} formula={expected.get(i, '-')}"
                for i in sorted(found.keys() | expected.keys())
                if found.get(i) != expected.get(i)
            ]
        for i, r in found.items():
            totals += [0] * (i + 1 - len(totals))
            totals[i] += size * r
        count += size * len(found)
    predicted = shape_entry_count(*shape, weights)
    if count != predicted:
        failures.append(f"entry count oracle={count} formula={predicted}")
    return failures, totals


def check_formula_vs_oracle(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """Orbit-by-orbit agreement of the oracle with the closed form of the
    crown (_orbit_comparison), then the regularity, the total Betti numbers
    and their alternating sum.

    The totals are the oracle's, read off its orbits.  The regularity is
    read off shape_graded_formula and checked against regularity_formula:
    once every orbit and the entry count agree, the graded numbers of the
    closed form are the oracle's."""
    shape = _family_shape("crown", (n,))
    failures, totals = _orbit_comparison(shape, weights, field)
    regularity = _graded_summary(shape_graded_formula(*shape, weights))[1]
    if regularity != regularity_formula(n, weights):
        failures.append(
            f"regularity graded={regularity} formula={regularity_formula(n, weights)}"
        )
    # every index up to the closed form's pdim 2n - 3 as well as the
    # oracle's: a table that lost its top index has a shorter sequence
    length = max(len(totals), 2 * n - 2)
    padded = totals + [0] * (length - len(totals))
    closed = [total_betti_closed_form(n, i) for i in range(length)]
    if padded != closed:
        failures.append(f"totals oracle={padded} closed form={closed}")
    alt = 1 + sum((-1) ** (i + 1) * b for i, b in enumerate(totals))
    if alt != 0:
        failures.append(f"alternating sum 1 - b0 + b1 - ... = {alt}, expected 0")
    return failures


def check_induced_subgraphs(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> tuple[list[str], list[str]]:
    """One walk over the vertex subsets W of the crown, reading each table
    of I(G[W]) once (empty when G[W] has no edge); the failures of the
    restriction and of the support implication, in that order.

    Restriction: the table of I(G[W]) equals the full graph's table
    restricted to the entries (i, a) with supp(a) inside W, at every
    homological index.  Support implication: every entry of the full table
    with supp(a) = W has i equal to the pdim of that recomputed table of
    I(G[W]); read off the full table alone, the pdim would miss an entry
    moved one index up.  Supports are bitmasks over the vertex order: I(G[W])
    is generated by the crown's generators whose support lies in W, and the
    full entries inside W are those filed under the submasks of W."""
    ideal = edge_ideal(crown(n, weights))
    full = multigraded_betti(ideal, field)
    variables = ideal.variables

    def mask(a: Multidegree) -> int:
        return sum(1 << k for k, e in enumerate(a.exponents) if e)

    generators = [(mask(g), g) for g in ideal.generators]
    by_support: dict[int, dict[tuple[int, Multidegree], int]] = {}
    for (i, a), c in full.entries.items():
        by_support.setdefault(mask(a), {})[i, a] = c
    empty = BettiTable(variables, {})
    restriction, support = [], []
    for size in range(len(variables.names) + 1):
        for subset in combinations(range(len(variables.names)), size):
            window = sum(1 << k for k in subset)
            inside = tuple(g for s, g in generators if s | window == window)
            sub = multigraded_betti(MonomialIdeal(variables, inside), field) if inside else empty
            restricted, part = dict(by_support.get(0, {})), window
            while part:  # after the empty support, every nonzero submask of W
                restricted.update(by_support.get(part, ()))
                part = (part - 1) & window
            if sub.entries != restricted:
                restriction.extend(
                    f"W={sorted(variables.names[k] for k in subset)} beta_({i}, {a}): "
                    f"subgraph={sub.entry(i, a)} full={full.entry(i, a)}"
                    for i, a in sub.differences(BettiTable(variables, restricted))
                )
            if window in by_support:
                p = sub.pdim() if sub.entries else None
                support.extend((i, a, p) for i, a in by_support[window] if p != i)
    return restriction, [
        f"beta_({i}, {a}) nonzero but G[supp] is edgeless" if p is None
        else f"beta_({i}, {a}) nonzero but pdim(I(G[supp])) = {p}"
        for i, a, p in sorted(support)
    ]


def check_restriction(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """Induced-subgraph restriction, table against table: for every vertex
    subset W, the whole Betti table of I(G[W]) (empty when G[W] has no
    edge) equals the full graph's table restricted to the entries (i, a)
    with supp(a) inside W, at every homological index.  The restriction
    half of check_induced_subgraphs."""
    return check_induced_subgraphs(n, weights, field)[0]


def check_support_implication(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """Every nonzero beta_{i,a} of the crown ideal has i equal to the
    projective dimension of the edge ideal induced on supp(a).  The
    support half of check_induced_subgraphs, so it pays for the whole walk."""
    return check_induced_subgraphs(n, weights, field)[1]


def check_crown_splitting(
    n: int, weights: Sequence[int], field: FieldSpec = FieldSpec()
) -> list[str]:
    """The decomposition I_n = (I_{n-1} + x_n*A) + y_n^{w_n}*B is a Betti
    splitting, and the pdim/reg max-formulas hold on it.  Parts whose
    generators do not split G(I_n) are a failure line, and a split with an
    empty part passes, as verify_betti_splitting has it; any other
    ValueError of the four tables (a broken invariant, or a table past the
    cap) is raised."""
    j_ideal, k_ideal = crown_splitting(n, weights)
    try:
        tables = _splitting_tables(edge_ideal(crown(n, weights)), j_ideal, k_ideal, field)
    except _NotASplit as exc:
        return [f"splitting of I_{n}: {exc}"]
    if tables is None:
        return []
    witness = splitting_violation(*tables)
    if witness is not None:
        i, a = witness
        return [f"splitting of I_{n} fails at beta_({i}, {a})"]
    t_whole, t_j, t_k, t_meet = tables
    failures = []
    if t_whole.pdim() != max(t_j.pdim(), t_k.pdim(), t_meet.pdim() + 1):
        failures.append(f"pdim max-formula fails for I_{n}")
    if t_whole.regularity() != max(
        t_j.regularity(), t_k.regularity(), t_meet.regularity() - 1
    ):
        failures.append(f"reg max-formula fails for I_{n}")
    return failures


def check_colon_chain(n: int, weights: Sequence[int]) -> list[str]:
    """The colon chain behind mapping_cone_upper_bound, by ideal arithmetic.

    With Q_0 = I_{n-1} and Q_s = Q_{s-1} + (x_n*x_s*y_s^{w_s}) for s < n,
    each Q_{s-1} : x_n*x_s*y_s^{w_s} is the complete intersection on x_r
    and y_r^{w_r} (r < n, r != s), the splitting's J ∩ K is
    y_n^{w_n}*Q_{n-1}, and the bound is at least the closed-form total
    beta_i for 0 <= i <= 2n - 3."""
    j_ideal, k_ideal = crown_splitting(n, weights)
    variables = j_ideal.variables

    def pair(r: int) -> tuple[Multidegree, Multidegree]:
        return variables.variable(f"x{r}"), variables.variable(f"y{r}", weights[r - 1])

    x_n, y_n = pair(n)
    # Q_0 = I_{n-1}: the generators of J that x_n does not divide
    q = minimalize(variables, [g for g in j_ideal.generators if not divides(x_n, g)])
    failures = []
    for s in range(1, n):
        x_s, y_s = pair(s)
        link = x_n * x_s * y_s
        colon = colon_by_monomial(q, link)
        expected = minimalize(variables, [v for r in range(1, n) if r != s for v in pair(r)])
        if colon != expected:
            failures.append(f"Q_{s - 1} : {link} = {colon}, expected {expected}")
        q = minimalize(variables, q.generators + (link,))
    meet = ideal_intersect(j_ideal, k_ideal)
    if meet != scale(y_n, q):
        failures.append(f"J ∩ K = {meet}, expected {y_n} * {q}")
    for i in range(2 * n - 2):
        bound, total = mapping_cone_upper_bound(n, i), total_betti_closed_form(n, i)
        if bound < total:
            failures.append(f"mapping-cone bound {bound} < closed-form beta_{i} = {total}")
    return failures


def check_binomial_identity(n_max: int = 12) -> list[str]:
    """C(2n-4, m) decomposes over the number of complete pairs chosen, for
    every crown size n from 2 to n_max; n_max below 2 is a ValueError."""
    if n_max < 2:
        raise ValueError(f"the identity check needs n_max >= 2, got {n_max}")
    failures = []
    for n in range(2, n_max + 1):
        for m in range(0, 2 * n - 3):
            rhs = sum(
                2 ** (m + 4 - 2 * k)
                * binomial(n - k, m + 4 - 2 * k)
                * binomial(n - 2, k - 2)
                for k in range(2, n + 1)
                if m + 4 - 2 * k >= 0
            )
            if binomial(2 * n - 4, m) != rhs:
                failures.append(
                    f"identity fails at n={n}, m={m}: "
                    f"{binomial(2 * n - 4, m)} != {rhs}"
                )
    return failures


def default_weight_matrix(n: int) -> list[tuple[int, ...]]:
    """The three standard weight vectors: all ones, (2,1,...,1), (1,2,...,n)."""
    return [
        (1,) * n,
        (2,) + (1,) * (n - 1),
        tuple(range(1, n + 1)),
    ]
