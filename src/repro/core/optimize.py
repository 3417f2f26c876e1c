"""Hot-path optimization knobs.

``optimize=`` parameters throughout the library accept either a plain
bool — ``True`` is every knob on, ``False`` the literal Fig. 11 network
with none — or an :class:`OptimizationFlags` instance; a checkpoint
carries the three-key dict of :meth:`OptimizationFlags.to_obj` and
nothing else.  Three knobs remain, because three things are still
selected by a caller that exists (the differential suites and the bench
ladder):

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
``tests/core/test_optimize_differential.py`` and the door sweep of
``tests/integration/test_doors.py`` enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product


@dataclass(frozen=True, slots=True)
class OptimizationFlags:
    """Per-knob optimization switches (see the module docstring)."""

    production_network: bool = True
    dfa_lane: bool = True
    hybrid_gate: bool = True

    def to_obj(self) -> dict[str, bool]:
        """Checkpoint encoding: one key per knob, always."""
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
    the dict encoding :meth:`OptimizationFlags.to_obj` produces.

    Raises:
        ValueError: a key that is not a knob.
    """
    if isinstance(value, OptimizationFlags):
        return value
    if isinstance(value, dict):
        unknown = set(value) - {f.name for f in fields(OptimizationFlags)}
        if unknown:
            raise ValueError(f"unknown optimization flag(s): {sorted(unknown)}")
        return OptimizationFlags(**{k: bool(v) for k, v in value.items()})
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
