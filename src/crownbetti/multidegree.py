"""Exponent vectors over a fixed variable set.

A multidegree doubles as a monomial: the vector (2, 0, 1) over variables
(x, y, z) is the monomial x^2*z.  All ideal-level machinery in this
package is built on componentwise arithmetic of these vectors.

A Betti table holds one multidegree per entry, about 3^n for a crown on
n pairs, so the type is kept cheap: it is slotted, it hashes by its
exponents alone (equal multidegrees have equal exponents), and each shape
(s, t) shares one immutable variable set x1..xs, y1..yt, so comparing the
variable sets of two entries of one table is an identity test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence


@dataclass(frozen=True, order=True)
class VariableSet:
    """Ordered collection of distinct variable labels.

    The order is fixed at construction and defines the indexing of every
    exponent vector over this set.
    """

    names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate variable labels: {self.names}")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, label: str) -> int:
        try:
            return self._index_map[label]
        except AttributeError:
            object.__setattr__(
                self, "_index_map", {v: i for i, v in enumerate(self.names)}
            )
            return self._index_map[label]

    def monomial(self, exponents: Sequence[int]) -> Multidegree:
        return Multidegree(self, tuple(exponents))

    def variable(self, label: str, power: int = 1) -> Multidegree:
        """The monomial label**power."""
        exps = [0] * len(self.names)
        exps[self.index(label)] = power
        return Multidegree(self, tuple(exps))

    def one(self) -> Multidegree:
        return Multidegree(self, (0,) * len(self.names))

    def from_dict(self, powers: dict[str, int]) -> Multidegree:
        exps = [0] * len(self.names)
        for label, e in powers.items():
            exps[self.index(label)] = e
        return Multidegree(self, tuple(exps))


@lru_cache(maxsize=64)
def _xy_variables(s: int, t: int) -> VariableSet:
    """The universe x1..xs, y1..yt of a generalized-crown shape, in that order;
    one shared (immutable) set per shape."""
    return VariableSet(
        tuple(f"x{i}" for i in range(1, s + 1)) + tuple(f"y{j}" for j in range(1, t + 1))
    )


def xy_variables(n: int) -> VariableSet:
    """The canonical universe x1..xn, y1..yn used by the crown families."""
    return _xy_variables(n, n)


@dataclass(frozen=True, order=True, slots=True)
class Multidegree:
    """Nonnegative exponent vector over a VariableSet; identified with
    the monomial it encodes.  Over one variable set, multidegrees order
    lexicographically by exponent vector.  The hash is that of the
    exponents: equal multidegrees have equal exponents."""

    variables: VariableSet
    exponents: tuple[int, ...]

    def __post_init__(self):
        exponents = self.exponents
        if type(exponents) is not tuple:
            exponents = tuple(exponents)
            object.__setattr__(self, "exponents", exponents)
        if len(exponents) != len(self.variables.names):
            raise ValueError(
                f"expected {len(self.variables.names)} exponents, got {len(exponents)}"
            )
        if exponents and min(exponents) < 0:
            raise ValueError(f"negative exponent in {exponents}")

    def __hash__(self) -> int:
        return hash(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def support(self) -> frozenset[str]:
        """Labels of the variables appearing with positive exponent."""
        return frozenset(
            v for v, e in zip(self.variables.names, self.exponents) if e > 0
        )

    def is_one(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other: Multidegree) -> Multidegree:
        _check_same_variables(self, other)
        return Multidegree(
            self.variables,
            tuple(a + b for a, b in zip(self.exponents, other.exponents)),
        )

    def __str__(self) -> str:
        if self.is_one():
            return "1"
        parts = []
        for v, e in zip(self.variables.names, self.exponents):
            if e == 1:
                parts.append(v)
            elif e > 1:
                parts.append(f"{v}^{e}")
        return "*".join(parts)


def _check_same_variables(a: Multidegree, b: Multidegree) -> None:
    if a.variables != b.variables:
        raise ValueError(
            f"multidegrees over different variable sets: "
            f"{a.variables.names} vs {b.variables.names}"
        )


def lcm(a: Multidegree, b: Multidegree) -> Multidegree:
    """Componentwise maximum (lcm of the corresponding monomials)."""
    _check_same_variables(a, b)
    return Multidegree(
        a.variables, tuple(max(p, q) for p, q in zip(a.exponents, b.exponents))
    )


def gcd(a: Multidegree, b: Multidegree) -> Multidegree:
    """Componentwise minimum."""
    _check_same_variables(a, b)
    return Multidegree(
        a.variables, tuple(min(p, q) for p, q in zip(a.exponents, b.exponents))
    )


def lcm_of(monomials: Iterable[Multidegree]) -> Multidegree:
    ms = list(monomials)
    if not ms:
        raise ValueError("lcm of an empty collection is undefined")
    return reduce(lcm, ms)


def divides(a: Multidegree, b: Multidegree) -> bool:
    """True iff a <= b componentwise, i.e. the monomial a divides b."""
    _check_same_variables(a, b)
    return all(p <= q for p, q in zip(a.exponents, b.exponents))


def quotient(b: Multidegree, a: Multidegree) -> Multidegree:
    """Exact quotient b / a; requires a | b."""
    _check_same_variables(a, b)
    if not divides(a, b):
        raise ValueError(f"{a} does not divide {b}")
    return Multidegree(
        b.variables, tuple(q - p for p, q in zip(a.exponents, b.exponents))
    )


def binomial(q: int, p: int) -> int:
    """Binomial coefficient C(q, p), extended by zero outside 0 <= p <= q.

    The zero extension matters: the crown closed forms sum terms like
    2^(i+3-2k) * C(n-k, i+3-2k), which must vanish (without ever forming a
    negative power of 2) whenever the lower index leaves range.
    """
    if p < 0 or p > q:
        return 0
    return math.comb(q, p)
