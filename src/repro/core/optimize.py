"""Hot-path optimization knobs.

``optimize=`` parameters throughout the library accept either a plain
bool — ``True`` is every knob on, ``False`` the literal Fig. 11 network
with none — or an :class:`OptimizationFlags` instance.  Three knobs
remain, because three things are still selected by a caller that exists
(the differential suites and the bench ladder):

* ``production_network`` — compile and drive transducer networks the
  production way, which differs from the reference in exactly two
  decisions: ``label*`` is fused into the ``DS`` transducer
  (:mod:`repro.core.path_transducers`), and one straight-line pass per
  event class is generated over the transducers' entry points and
  flattened into one closure that reuses a single document message
  (:func:`repro.core.network.make_fused_runner`).  Formulas are
  normalized by the plain ``conj``/``disj`` and activations are fresh
  objects in both networks — a normalization memo and an activation
  pool were measured on the benchmark's traffic and deleted
  (``docs/performance.md``, "Traffic audit").  Off, the network is the
  literal Fig. 11 translation, interpreted — the oracle every
  differential test compares against.
* ``dfa_lane`` — execute dfa-lane queries (qualifier-free, no axes) on
  the shared lazily-determinized product DFA instead of a transducer
  network (:mod:`repro.core.fastlane`).
* ``hybrid_gate`` — run hybrid-lane queries through the shared DFA as
  well: final-step-qualifier queries natively, everything else split at
  the planner's prefix — the prefix runs in the DFA, and only the
  residual is a transducer network, fed the events the DFA says it
  needs (:mod:`repro.core.fastlane`).

None of the knobs may change answers;
``tests/core/test_optimize_differential.py`` and
``tests/integration/test_lane_differential.py`` enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product

from ..errors import CheckpointError

#: The five network-level knobs of checkpoint format 2, always on
#: together since PR 5/PR 10 and now one: ``production_network``.  The
#: names outlive what two of them selected (the memo and the pool are
#: gone): format-2 checkpoints still spell them and must decode.
_FOLDED = ("star_fusion", "routing", "formula_memo", "message_pool", "fused_network")


@dataclass(frozen=True, slots=True)
class OptimizationFlags:
    """Per-knob optimization switches (see the module docstring)."""

    production_network: bool = True
    dfa_lane: bool = True
    hybrid_gate: bool = True

    def to_obj(self) -> object:
        """Checkpoint encoding: plain bool for the two endpoint presets
        (keeps old-format checkpoints round-tripping), a dict otherwise."""
        if self == ALL_OPTIMIZATIONS:
            return True
        if self == NO_OPTIMIZATIONS:
            return False
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def describe(self) -> str:
        on = [f.name for f in fields(self) if getattr(self, f.name)]
        return "+".join(on) if on else "none"


#: Every knob on — the default, and what ``optimize=True`` means.
ALL_OPTIMIZATIONS = OptimizationFlags()
#: The literal Fig. 11 semantics — what ``optimize=False`` means.
NO_OPTIMIZATIONS = OptimizationFlags(
    production_network=False, dfa_lane=False, hybrid_gate=False
)


def as_flags(value: object) -> OptimizationFlags:
    """Normalize an ``optimize=`` argument (or its checkpoint encoding).

    Accepts an :class:`OptimizationFlags`, a bool (endpoint presets) or
    the dict encoding :meth:`OptimizationFlags.to_obj` produces —
    including the seven-key dicts older checkpoints carry, whose five
    network keys fold into ``production_network``.

    Raises:
        ValueError: a key that never was a knob.
        CheckpointError: a seven-key dict whose network keys disagree —
            a topology this version can no longer compile.
    """
    if isinstance(value, OptimizationFlags):
        return value
    if isinstance(value, dict):
        known = {f.name for f in fields(OptimizationFlags)}
        unknown = set(value) - known - set(_FOLDED)
        if unknown:
            raise ValueError(f"unknown optimization flag(s): {sorted(unknown)}")
        knobs = {k: bool(v) for k, v in value.items() if k in known}
        if not known.issuperset(value):
            # the old decoder read an absent key as "on"
            off = sorted(k for k in _FOLDED if not value.get(k, True))
            if off and len(off) < len(_FOLDED):
                raise CheckpointError(
                    f"checkpoint mixes the network knobs that are now one "
                    f"(off: {off}, on: {sorted(set(_FOLDED) - set(off))}); "
                    f"only all-on (production_network) and all-off (the "
                    f"reference network) can still be compiled"
                )
            knobs.setdefault("production_network", not off)
        return OptimizationFlags(**knobs)
    return ALL_OPTIMIZATIONS if value else NO_OPTIMIZATIONS


def all_knob_combinations() -> list[OptimizationFlags]:
    """All 2³ knob settings, ``ALL_OPTIMIZATIONS`` first.

    The differential suites run each against ``NO_OPTIMIZATIONS``.
    """
    names = [f.name for f in fields(OptimizationFlags)]
    return [
        OptimizationFlags(**dict(zip(names, bits)))
        for bits in product((True, False), repeat=len(names))
    ]
