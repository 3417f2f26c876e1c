"""Boolean condition formulas.

Activation messages in a SPEX network carry *condition formulas* —
conjunctions and disjunctions of *condition variables*, one variable per
qualifier instance (paper, Def. 2).  Results are emitted once their
formula is determined ``true`` and dropped once it is ``false``.

Formulas here are immutable, hash-consed-by-construction trees with the
normalizations the paper relies on:

* constant absorption (``f ∧ true == f``, ``f ∨ true == true``, …),
* flattening of nested ∧/∧ and ∨/∨,
* duplicate-conjunct elimination ("a formula contains at most one
  reference to a condition variable", Sec. III.4).

Three-valued evaluation (:func:`evaluate`) is deliberately separate from
the representation: the same formula object is re-evaluated as variable
knowledge accumulates in a :class:`~repro.conditions.store.ConditionStore`.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from operator import itemgetter
from typing import TYPE_CHECKING

_counter = itertools.count(1)


class Formula:
    """Base class of condition formulas.

    ``size`` is the number of variable occurrences — the paper's formula
    size σ.  Constants have size 1 so the qualifier-free fragment reports
    ``σ == 1`` exactly as in Sec. V.  It is a plain attribute, not a
    property: the transducer hot loop reads it once per activation
    message, and connectives precompute theirs at construction instead
    of re-walking the tree on every read.
    """

    __slots__ = ()

    #: the paper's σ; shadowed by a precomputed slot on ``And``/``Or``
    size = 1

    def variables(self) -> frozenset[Var]:
        """All condition variables occurring in the formula."""
        return frozenset()


@dataclass(frozen=True, slots=True)
class _True(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True, slots=True)
class _False(Formula):
    def __str__(self) -> str:
        return "false"


#: The constant formulas.  There is exactly one instance of each, so
#: identity comparison (``f is TRUE``) is safe and used throughout.
TRUE = _True()
FALSE = _False()


#: ``Var`` construction that skips the Python-level ``Var.__new__``:
#: ``_new_var(Var, (uid, qualifier))``, for allocators on the hot path
_new_var = tuple.__new__


class Var(tuple[int, str], Formula):
    """A condition variable — one instance of one qualifier.

    A ``(uid, qualifier)`` value: a tuple, so hashing and equality run
    in C — ``Var`` is the hottest dict key in the engine (condition-store
    states, watcher sets, dependent sets).

    Attributes:
        uid: globally unique id (allocation order, which is also document
            order of the activations that created the instances).
        qualifier: id of the qualifier (the variable-creator transducer)
            this instance belongs to; the variable-filter transducer keys
            on this.
    """

    __slots__ = ()

    if TYPE_CHECKING:

        @property
        def uid(self) -> int: ...

        @property
        def qualifier(self) -> str: ...

    else:
        uid = property(itemgetter(0))
        qualifier = property(itemgetter(1))

    def __new__(cls, uid: int, qualifier: str) -> Var:
        return _new_var(cls, (uid, qualifier))

    def __getnewargs__(self) -> tuple[int, str]:  # type: ignore[override]
        # tuple's own would hand __new__ one argument, the whole pair
        return (self[0], self[1])

    def variables(self) -> frozenset[Var]:
        return frozenset((self,))

    def __repr__(self) -> str:
        return f"Var(uid={self[0]!r}, qualifier={self[1]!r})"

    def __str__(self) -> str:
        return f"{self[1]}{self[0]}"


@dataclass(frozen=True, slots=True)
class And(Formula):
    """Conjunction of two or more sub-formulas (flattened, deduplicated)."""

    terms: tuple[Formula, ...]
    #: precomputed σ; excluded from eq/hash (derivable from ``terms``)
    size: int = field(init=False, repr=False, compare=False, default=1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", sum(term.size for term in self.terms))

    def variables(self) -> frozenset[Var]:
        result: frozenset[Var] = frozenset()
        for term in self.terms:
            result |= term.variables()
        return result

    def __str__(self) -> str:
        return "(" + " ^ ".join(str(term) for term in self.terms) + ")"


@dataclass(frozen=True, slots=True)
class Or(Formula):
    """Disjunction of two or more sub-formulas (flattened, deduplicated)."""

    terms: tuple[Formula, ...]
    #: precomputed σ; excluded from eq/hash (derivable from ``terms``)
    size: int = field(init=False, repr=False, compare=False, default=1)

    def __post_init__(self) -> None:
        object.__setattr__(self, "size", sum(term.size for term in self.terms))

    def variables(self) -> frozenset[Var]:
        result: frozenset[Var] = frozenset()
        for term in self.terms:
            result |= term.variables()
        return result

    def __str__(self) -> str:
        return "(" + " v ".join(str(term) for term in self.terms) + ")"


def fresh_var(qualifier: str) -> Var:
    """Allocate a new condition variable for a qualifier instance."""
    return Var(next(_counter), qualifier)


def _flatten(terms: tuple[Formula, ...], cls: type) -> Iterator[Formula]:
    for term in terms:
        if isinstance(term, cls):
            yield from term.terms
        else:
            yield term


def conj(*terms: Formula) -> Formula:
    """Normalized conjunction.

    Applies constant absorption, flattening and duplicate elimination; the
    result is ``TRUE`` for an empty conjunction.
    """
    seen: dict[Formula, None] = {}
    for term in _flatten(terms, And):
        if term is FALSE:
            return FALSE
        if term is TRUE:
            continue
        seen.setdefault(term, None)
    unique = tuple(seen)
    if not unique:
        return TRUE
    if len(unique) == 1:
        return unique[0]
    return And(unique)


def disj(*terms: Formula) -> Formula:
    """Normalized disjunction (dual of :func:`conj`); empty gives ``FALSE``."""
    seen: dict[Formula, None] = {}
    for term in _flatten(terms, Or):
        if term is TRUE:
            return TRUE
        if term is FALSE:
            continue
        seen.setdefault(term, None)
    unique = tuple(seen)
    if not unique:
        return FALSE
    if len(unique) == 1:
        return unique[0]
    return Or(unique)


def formula_to_obj(formula: Formula) -> object:
    """Stable, JSON-serializable form of a formula (checkpoint codec).

    The encoding is positional and versioned implicitly by the checkpoint
    format: constants become bare strings, a variable becomes
    ``["v", uid, qualifier]``, connectives become ``["^"| "v-or", ...]``
    with their terms in construction order (term order is semantically
    irrelevant but keeping it makes round-trips byte-identical).
    """
    if formula is TRUE:
        return "t"
    if formula is FALSE:
        return "f"
    if isinstance(formula, Var):
        return ["v", formula.uid, formula.qualifier]
    if isinstance(formula, And):
        return ["and", *(formula_to_obj(term) for term in formula.terms)]
    if isinstance(formula, Or):
        return ["or", *(formula_to_obj(term) for term in formula.terms)]
    raise TypeError(f"not a formula: {formula!r}")


def formula_from_obj(obj: object) -> Formula:
    """Inverse of :func:`formula_to_obj`.

    Constants decode to the :data:`TRUE`/:data:`FALSE` singletons so
    downstream identity checks (``f is TRUE``) keep working after a
    checkpoint round-trip.
    """
    if obj == "t":
        return TRUE
    if obj == "f":
        return FALSE
    if isinstance(obj, (list, tuple)) and obj:
        tag = obj[0]
        if tag == "v":
            return Var(int(obj[1]), str(obj[2]))
        if tag == "and":
            return And(tuple(formula_from_obj(term) for term in obj[1:]))
        if tag == "or":
            return Or(tuple(formula_from_obj(term) for term in obj[1:]))
    raise ValueError(f"not an encoded formula: {obj!r}")


def evaluate(formula: Formula, lookup: Callable[[Var], bool | None]) -> bool | None:
    """Three-valued evaluation under partial variable knowledge.

    Args:
        formula: the formula to evaluate.
        lookup: maps a variable to ``True``/``False`` when determined,
            ``None`` while undetermined.

    Returns:
        ``True``/``False`` once the formula's value is forced by the known
        variables, ``None`` otherwise.  Short-circuits: a conjunction with
        one known-``False`` term is ``False`` regardless of unknowns —
        this is what lets the output transducer drop or emit candidates
        early (the paper's "progressive" behaviour).
    """
    if formula is TRUE:
        return True
    if formula is FALSE:
        return False
    if isinstance(formula, Var):
        return lookup(formula)
    if isinstance(formula, And):
        saw_unknown = False
        for term in formula.terms:
            value = evaluate(term, lookup)
            if value is False:
                return False
            if value is None:
                saw_unknown = True
        return None if saw_unknown else True
    if isinstance(formula, Or):
        saw_unknown = False
        for term in formula.terms:
            value = evaluate(term, lookup)
            if value is True:
                return True
            if value is None:
                saw_unknown = True
        return None if saw_unknown else False
    raise TypeError(f"not a formula: {formula!r}")


def substitute(formula: Formula, lookup: Callable[[Var], bool | None]) -> Formula:
    """Residual formula after substituting determined variables.

    The paper's ``update(c, v, β)`` stack operation: determined variables
    are replaced by their constants and the formula re-normalized, which
    keeps stored formulas from outgrowing the bound σ.
    """
    if isinstance(formula, Var):
        value = lookup(formula)
        if value is None:
            return formula
        return TRUE if value else FALSE
    if isinstance(formula, And):
        return conj(*(substitute(term, lookup) for term in formula.terms))
    if isinstance(formula, Or):
        return disj(*(substitute(term, lookup) for term in formula.terms))
    return formula


def restrict(formula: Formula, keep: Callable[[Var], bool]) -> Formula:
    """Project a formula onto a subset of its variables.

    Used by the variable-filter transducer: variables outside the
    qualifier's own sub-network are *existentially ignored* — dropped from
    conjunctions (treated as satisfiable) — so what remains mentions only
    the qualifier's instances.  A conjunction of only-foreign variables
    reduces to ``TRUE``.
    """
    if isinstance(formula, Var):
        return formula if keep(formula) else TRUE
    if isinstance(formula, And):
        return conj(*(restrict(term, keep) for term in formula.terms))
    if isinstance(formula, Or):
        # Dual care: a disjunct reduced to TRUE (all-foreign) makes the
        # disjunction TRUE, which is the correct existential reading — the
        # activation did reach this point along that disjunct.
        return disj(*(restrict(term, keep) for term in formula.terms))
    return formula


def dnf(formula: Formula) -> list[frozenset[Var]]:
    """Disjunctive normal form as a list of variable conjunctions.

    Only defined for constant-free formulas over variables (after
    normalization, constants only appear as the whole formula).  ``TRUE``
    yields ``[frozenset()]`` (one empty conjunct) and ``FALSE`` yields
    ``[]``.  The variable-determinant transducer uses this to split one
    activation formula into per-instance contributions.
    """
    if formula is TRUE:
        return [frozenset()]
    if formula is FALSE:
        return []
    if isinstance(formula, Var):
        return [frozenset((formula,))]
    if isinstance(formula, Or):
        result: list[frozenset[Var]] = []
        seen: set[frozenset[Var]] = set()
        for term in formula.terms:
            for conjunct in dnf(term):
                if conjunct not in seen:
                    seen.add(conjunct)
                    result.append(conjunct)
        return result
    if isinstance(formula, And):
        product: list[frozenset[Var]] = [frozenset()]
        for term in formula.terms:
            expansions = dnf(term)
            product = [base | extra for base in product for extra in expansions]
        deduped: list[frozenset[Var]] = []
        seen = set()
        for conjunct in product:
            if conjunct not in seen:
                seen.add(conjunct)
                deduped.append(conjunct)
        return deduped
    raise TypeError(f"not a formula: {formula!r}")
