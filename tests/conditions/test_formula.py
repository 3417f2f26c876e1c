"""Unit and property tests for boolean condition formulas."""

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.conditions.formula import (
    FALSE,
    TRUE,
    And,
    Or,
    Var,
    conj,
    disj,
    dnf,
    evaluate,
    fresh_var,
    restrict,
    substitute,
)

V1, V2, V3 = Var(1, "q0"), Var(2, "q0"), Var(3, "q1")


class TestConstructors:
    def test_conj_identity(self):
        assert conj(TRUE, V1) is V1

    def test_conj_absorbs_false(self):
        assert conj(V1, FALSE, V2) is FALSE

    def test_conj_empty_is_true(self):
        assert conj() is TRUE

    def test_disj_identity(self):
        assert disj(FALSE, V1) is V1

    def test_disj_absorbs_true(self):
        assert disj(V1, TRUE) is TRUE

    def test_disj_empty_is_false(self):
        assert disj() is FALSE

    def test_flattening(self):
        nested = conj(conj(V1, V2), V3)
        assert isinstance(nested, And)
        assert len(nested.terms) == 3

    def test_duplicate_conjunct_elimination(self):
        # Sec. III.4: "a formula contains at most one reference to a
        # condition variable" after normalization.
        assert conj(V1, V1) is V1
        assert disj(V1, V1) is V1

    def test_duplicate_composite_terms(self):
        inner = conj(V1, V2)
        assert disj(inner, inner) == inner


class TestSize:
    def test_constant_size_one(self):
        # The paper: qualifier-free fragment has sigma == 1.
        assert TRUE.size == 1
        assert FALSE.size == 1

    def test_variable_size(self):
        assert V1.size == 1

    def test_composite_size_counts_occurrences(self):
        assert conj(V1, disj(V2, V3)).size == 3


class TestEvaluate:
    def test_constants(self):
        assert evaluate(TRUE, lambda v: None) is True
        assert evaluate(FALSE, lambda v: None) is False

    def test_unknown_variable(self):
        assert evaluate(V1, lambda v: None) is None

    def test_conjunction_short_circuit_false(self):
        # One false conjunct decides the formula despite unknowns — the
        # progressive-drop behaviour of the output transducer.
        formula = conj(V1, V2)
        assert evaluate(formula, lambda v: False if v == V1 else None) is False

    def test_disjunction_short_circuit_true(self):
        formula = disj(V1, V2)
        assert evaluate(formula, lambda v: True if v == V1 else None) is True

    def test_unknown_dominates_otherwise(self):
        formula = conj(V1, V2)
        assert evaluate(formula, lambda v: True if v == V1 else None) is None

    def test_full_assignment(self):
        formula = disj(conj(V1, V2), V3)
        values = {V1: True, V2: False, V3: False}
        assert evaluate(formula, values.get) is False


class TestSubstitute:
    def test_residual_keeps_unknowns(self):
        formula = conj(V1, V2)
        residual = substitute(formula, lambda v: True if v == V1 else None)
        assert residual == V2

    def test_decided_formulas_become_constants(self):
        assert substitute(conj(V1, V2), lambda v: True) is TRUE
        assert substitute(disj(V1, V2), lambda v: False) is FALSE

    def test_no_knowledge_is_identity(self):
        formula = disj(conj(V1, V2), V3)
        assert substitute(formula, lambda v: None) == formula


class TestRestrict:
    def test_keeps_matching_variables(self):
        formula = conj(V1, V3)
        assert restrict(formula, lambda v: v.qualifier == "q1") == V3

    def test_all_foreign_conjunction_is_true(self):
        assert restrict(conj(V1, V2), lambda v: False) is TRUE

    def test_disjunction_of_restrictions(self):
        formula = disj(conj(V1, V3), V2)
        restricted = restrict(formula, lambda v: v.qualifier == "q0")
        assert restricted == disj(V1, V2)


class TestDnf:
    def test_true_is_single_empty_conjunct(self):
        assert dnf(TRUE) == [frozenset()]

    def test_false_is_no_conjuncts(self):
        assert dnf(FALSE) == []

    def test_variable(self):
        assert dnf(V1) == [frozenset((V1,))]

    def test_disjunction_of_conjunctions(self):
        formula = disj(conj(V1, V3), V2)
        assert set(map(frozenset, dnf(formula))) == {
            frozenset((V1, V3)),
            frozenset((V2,)),
        }

    def test_distribution(self):
        formula = conj(disj(V1, V2), V3)
        assert set(map(frozenset, dnf(formula))) == {
            frozenset((V1, V3)),
            frozenset((V2, V3)),
        }


class TestFreshVar:
    def test_unique_uids(self):
        a, b = fresh_var("q0"), fresh_var("q0")
        assert a != b

    def test_qualifier_recorded(self):
        assert fresh_var("q7").qualifier == "q7"


#: a variable alone and inside each connective
_VALUES = [V3, conj(V1, V3), disj(V1, conj(V2, V3))]


class TestVarIsAValue:
    """``Var`` is a ``(uid, qualifier)`` value that survives copying."""

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    @pytest.mark.parametrize("formula", _VALUES, ids=str)
    def test_pickle_round_trip(self, formula, protocol):
        copied = pickle.loads(pickle.dumps(formula, protocol))
        assert type(copied) is type(formula)
        assert copied == formula and hash(copied) == hash(formula)
        assert str(copied) == str(formula)
        assert copied.variables() == formula.variables()

    @pytest.mark.parametrize("formula", _VALUES, ids=str)
    def test_deepcopy(self, formula):
        copied = copy.deepcopy(formula)
        assert type(copied) is type(formula)
        assert copied == formula and hash(copied) == hash(formula)
        assert {(v.uid, v.qualifier) for v in copied.variables()} == {
            (v.uid, v.qualifier) for v in formula.variables()
        }

    def test_equal_pairs_are_equal_and_hash_alike(self):
        assert Var(7, "q2") == Var(7, "q2")
        assert hash(Var(7, "q2")) == hash(Var(7, "q2"))
        twin = conj(Var(1, "q0"), Var(3, "q1"))
        assert twin == conj(V1, V3) and hash(twin) == hash(conj(V1, V3))
        assert len({Var(7, "q2"), Var(7, "q2")}) == 1

    def test_same_uid_under_another_qualifier_is_unequal(self):
        assert Var(1, "q0") != Var(1, "q1")
        assert conj(V1, V3) != conj(Var(1, "q1"), V3)
        assert disj(V1, V3) != disj(V1, Var(3, "q0"))


# ---------------------------------------------------------------------------
# property tests

_vars = st.sampled_from([V1, V2, V3])


@st.composite
def formulas(draw, depth=0):
    if depth >= 3 or draw(st.integers(0, 2)) == 0:
        return draw(_vars)
    left = draw(formulas(depth=depth + 1))
    right = draw(formulas(depth=depth + 1))
    return conj(left, right) if draw(st.booleans()) else disj(left, right)


@st.composite
def assignments(draw):
    return {
        V1: draw(st.booleans()),
        V2: draw(st.booleans()),
        V3: draw(st.booleans()),
    }


class TestProperties:
    @given(formulas(), assignments())
    def test_substitute_agrees_with_evaluate(self, formula, values):
        assert substitute(formula, values.get) is (
            TRUE if evaluate(formula, values.get) else FALSE
        )

    @given(formulas(), assignments())
    def test_partial_substitution_preserves_meaning(self, formula, values):
        partial = {V1: values[V1]}
        residual = substitute(formula, partial.get)
        assert evaluate(residual, values.get) == evaluate(formula, values.get)

    @given(formulas(), assignments())
    def test_dnf_preserves_meaning(self, formula, values):
        expected = evaluate(formula, values.get)
        via_dnf = any(all(values[v] for v in conjunct) for conjunct in dnf(formula))
        assert via_dnf == expected

    @given(formulas())
    def test_normalization_no_duplicate_vars_per_level(self, formula):
        if isinstance(formula, (And, Or)):
            assert len(formula.terms) == len(set(formula.terms))


class TestAlgebraicLaws:
    """Boolean-algebra laws over the three-valued evaluation."""

    @given(formulas(), formulas(), assignments())
    def test_conj_commutative(self, f, g, values):
        assert evaluate(conj(f, g), values.get) == evaluate(conj(g, f), values.get)

    @given(formulas(), formulas(), assignments())
    def test_disj_commutative(self, f, g, values):
        assert evaluate(disj(f, g), values.get) == evaluate(disj(g, f), values.get)

    @given(formulas(), formulas(), formulas(), assignments())
    def test_conj_associative(self, f, g, h, values):
        left = evaluate(conj(conj(f, g), h), values.get)
        right = evaluate(conj(f, conj(g, h)), values.get)
        assert left == right

    @given(formulas(), assignments())
    def test_idempotence(self, f, values):
        assert conj(f, f) == f
        assert disj(f, f) == f

    @given(formulas(), formulas(), formulas(), assignments())
    def test_distribution_via_dnf(self, f, g, h, values):
        formula = conj(f, disj(g, h))
        expanded = disj(conj(f, g), conj(f, h))
        assert evaluate(formula, values.get) == evaluate(expanded, values.get)

    @given(formulas())
    def test_constants_absorb(self, f):
        assert conj(f, TRUE) == f
        assert disj(f, FALSE) == f
        assert conj(f, FALSE) is FALSE
        assert disj(f, TRUE) is TRUE

    @given(formulas(), assignments())
    def test_restrict_to_all_is_identity(self, f, values):
        assert restrict(f, lambda v: True) == f

    @given(formulas())
    def test_restrict_to_none_is_true(self, f):
        assert restrict(f, lambda v: False) is TRUE

    @given(formulas(), assignments())
    def test_three_valued_monotonicity(self, f, values):
        """Adding knowledge never flips a determined verdict."""
        partial = {V1: values[V1]}
        before = evaluate(f, partial.get)
        after = evaluate(f, values.get)
        if before is not None:
            assert after == before
