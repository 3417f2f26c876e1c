"""Hot-path optimization knobs.

Every optimization the engine applies on top of the paper's literal
Fig. 11 semantics is an independent knob here, so the differential test
suite can switch each one off and compare answers bit-for-bit against
the unoptimized evaluation.  ``optimize=`` parameters throughout the
library accept either a plain bool — ``True`` is every knob on,
``False`` the literal Fig. 11 network with none — or an
:class:`OptimizationFlags` instance for per-knob control.

The knobs (each described where it is implemented):

* ``star_fusion`` — compile ``label*`` to the fused ``DS`` transducer
  instead of the literal split/closure/join triple
  (:mod:`repro.core.path_transducers`).
* ``routing`` — compile the network's per-event routing into a flat
  dispatch table at finalize time: bound feed methods, reused output
  slots and identity-split bypass (:mod:`repro.core.network`).
* ``formula_memo`` — a bounded, identity-keyed memo for the binary
  conjunction/disjunction normalizations
  (:class:`repro.conditions.formula.FormulaMemo`); σ-bounded formulas
  repeat heavily under closures, so most normalizations are replays.
* ``message_pool`` — reuse one document-message object per network and
  recycle activation messages event-to-event
  (:class:`repro.core.messages.ActivationPool`), cutting allocator
  churn on the per-event hot path.
* ``dfa_lane`` — execute dfa-lane queries (qualifier-free, no axes) on
  the shared lazily-determinized product DFA instead of a transducer
  network (:mod:`repro.core.fastlane`).
* ``hybrid_gate`` — run hybrid-lane queries through the shared DFA as
  well: final-step-qualifier queries natively, everything else split at
  the planner's prefix — the prefix runs in the DFA, and only the
  residual is a transducer network, fed the events the DFA says it
  needs (:mod:`repro.core.fastlane`).
* ``fused_network`` — flatten a finalized network's per-event driver
  into one closure over an event-class table instead of the method-call
  chain through :meth:`repro.core.network.Network.process_event`
  (:func:`repro.core.dispatch.make_fused_runner`).

None of the knobs may change answers; the ``BENCH_<n>.json`` trajectory
gate and ``tests/core/test_optimize_differential.py`` enforce that.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True, slots=True)
class OptimizationFlags:
    """Per-knob optimization switches (see the module docstring)."""

    star_fusion: bool = True
    routing: bool = True
    formula_memo: bool = True
    message_pool: bool = True
    dfa_lane: bool = True
    hybrid_gate: bool = True
    fused_network: bool = True

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
    star_fusion=False,
    routing=False,
    formula_memo=False,
    message_pool=False,
    dfa_lane=False,
    hybrid_gate=False,
    fused_network=False,
)


def as_flags(value: object) -> OptimizationFlags:
    """Normalize an ``optimize=`` argument (or its checkpoint encoding).

    Accepts an :class:`OptimizationFlags`, a bool (endpoint presets) or
    the dict encoding :meth:`OptimizationFlags.to_obj` produces.
    """
    if isinstance(value, OptimizationFlags):
        return value
    if isinstance(value, dict):
        known = {f.name for f in fields(OptimizationFlags)}
        unknown = set(value) - known
        if unknown:
            raise ValueError(f"unknown optimization flag(s): {sorted(unknown)}")
        return OptimizationFlags(**{k: bool(v) for k, v in value.items()})
    return ALL_OPTIMIZATIONS if value else NO_OPTIMIZATIONS


def all_knob_combinations() -> list[OptimizationFlags]:
    """Every single-knob-off variant plus the two endpoints.

    The differential suite runs each against ``NO_OPTIMIZATIONS`` — wide
    enough to attribute a divergence to one knob without paying for the
    full 2^n product on every test run.
    """
    names = [f.name for f in fields(OptimizationFlags)]
    combos = [ALL_OPTIMIZATIONS, NO_OPTIMIZATIONS]
    combos.extend(
        OptimizationFlags(**{name: False}) for name in names
    )
    combos.extend(
        OptimizationFlags(**{n: n == name for n in names}) for name in names
    )
    return combos
