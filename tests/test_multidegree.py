import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from crownbetti import (
    Multidegree,
    VariableSet,
    binomial,
    divides,
    lcm,
    xy_variables,
)
from crownbetti.multidegree import _xy_variables

V2 = VariableSet(("x", "y"))


def m(*exps):
    return V2.monomial(exps)


exps = st.tuples(st.integers(0, 5), st.integers(0, 5))
monos = exps.map(lambda e: V2.monomial(e))


class TestLcmDivides:
    def test_componentwise_max(self):
        assert lcm(m(2, 0), m(1, 1)) == m(2, 1)

    def test_identity_element(self):
        b = m(3, 4)
        assert lcm(m(0, 0), b) == b

    def test_divides_examples(self):
        assert divides(m(1, 0), m(1, 1))
        assert not divides(m(2, 0), m(1, 1))

    def test_mismatched_variable_sets_rejected(self):
        other = VariableSet(("a", "b")).monomial((1, 0))
        with pytest.raises(ValueError):
            lcm(m(1, 0), other)
        with pytest.raises(ValueError):
            divides(m(1, 0), other)

    @given(monos)
    def test_lcm_idempotent_and_divides_reflexive(self, a):
        assert lcm(a, a) == a
        assert divides(a, a)

    @given(monos, monos)
    def test_lcm_commutative(self, a, b):
        assert lcm(a, b) == lcm(b, a)

    @given(monos, monos, monos)
    def test_lcm_associative(self, a, b, c):
        assert lcm(lcm(a, b), c) == lcm(a, lcm(b, c))

    @given(monos, monos, monos)
    def test_divides_partial_order(self, a, b, c):
        if divides(a, b) and divides(b, a):
            assert a == b
        if divides(a, b) and divides(b, c):
            assert divides(a, c)

    @given(monos, monos)
    def test_support_of_lcm_is_union(self, a, b):
        assert lcm(a, b).support() == a.support() | b.support()


class TestSupport:
    def test_positive_exponents_only(self):
        v = VariableSet(("x1", "x2", "y1", "y2"))
        assert v.from_dict({"x1": 2, "y2": 1}).support() == {"x1", "y2"}

    def test_zero_vector(self):
        assert m(0, 0).support() == frozenset()

    def test_weighted_edge_generators(self):
        v = xy_variables(2)
        a = v.from_dict({"x1": 1, "x2": 1, "y1": 3, "y2": 7})
        assert a.support() == {"x1", "x2", "y1", "y2"}


class TestBinomial:
    def test_small_value(self):
        assert binomial(3, 2) == 3

    def test_out_of_range_is_zero(self):
        assert binomial(1, -1) == 0
        assert binomial(2, 5) == 0

    def test_pair_partition_identity_instance(self):
        # n=4, m=2: C(4,2) = 2^2*C(2,2)*C(2,0) + 2^0*C(1,0)*C(2,1)
        n, mm = 4, 2
        rhs = sum(
            2 ** (mm + 4 - 2 * k) * binomial(n - k, mm + 4 - 2 * k) * binomial(n - 2, k - 2)
            for k in range(2, n + 1)
            if mm + 4 - 2 * k >= 0
        )
        assert binomial(2 * n - 4, mm) == 6 == rhs

    @pytest.mark.parametrize("n", range(2, 13))
    def test_pair_partition_identity_exhaustive(self, n):
        for mm in range(0, 2 * n - 3):
            rhs = sum(
                2 ** (mm + 4 - 2 * k)
                * binomial(n - k, mm + 4 - 2 * k)
                * binomial(n - 2, k - 2)
                for k in range(2, n + 1)
                if mm + 4 - 2 * k >= 0
            )
            assert binomial(2 * n - 4, mm) == rhs


def test_negative_exponent_rejected():
    for exponents in [(-1, 0), (2, -3)]:
        message = re.escape(f"negative exponent in {exponents}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            Multidegree(V2, exponents)


def test_no_variables():
    assert VariableSet(()).one().exponents == ()


def test_wrong_length_rejected():
    with pytest.raises(ValueError):
        Multidegree(V2, (1, 0, 0))


def test_duplicate_labels_rejected():
    with pytest.raises(ValueError):
        VariableSet(("x", "x"))


class TestValueContract:
    def test_list_exponents_stored_as_tuple(self):
        a = Multidegree(V2, [1, 2])
        assert type(a.exponents) is tuple and a.exponents == (1, 2)
        exponents = (1, 2)
        assert Multidegree(V2, exponents).exponents is exponents

    def test_equal_multidegrees_hash_equal(self):
        a, b = Multidegree(V2, (1, 2)), Multidegree(VariableSet(("x", "y")), [1, 2])
        assert a == b and hash(a) == hash(b) == hash((1, 2))

    def test_slotted(self):
        assert not hasattr(m(1, 2), "__dict__")

    def test_same_exponents_over_two_variable_sets_are_two_keys(self):
        a, b = Multidegree(V2, (1, 2)), VariableSet(("a", "b")).monomial((1, 2))
        assert a != b
        assert len({a: 1, b: 2}) == 2

    def test_fields_are_frozen(self):
        a = m(1, 2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.exponents = (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.variables = V2

    @pytest.mark.parametrize(
        "clone", [lambda a: pickle.loads(pickle.dumps(a)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_copies_are_equal(self, clone):
        a = xy_variables(2).from_dict({"x1": 1, "y2": 3})
        b = clone(a)
        assert b == a and hash(b) == hash(a) and b is not a

    def test_each_shape_shares_one_variable_set(self):
        assert _xy_variables(3, 2) is _xy_variables(3, 2)
        assert xy_variables(4) is _xy_variables(4, 4)
