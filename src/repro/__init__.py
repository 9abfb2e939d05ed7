"""repro — reproduction of *Complexity and Composition of Synthesized Web
Services* (Fan, Geerts, Gelade, Neven, Poggi; PODS 2008).

The package implements the paper's model and results as runnable code:

* :mod:`repro.core` — synthesized Web services (Definition 2.1), execution
  trees and the run semantics of Section 2, the class lattice, PL language
  semantics and UCQ≠ expansion.
* :mod:`repro.data` — the relational substrate (schemas, relations,
  databases, timestamped input sequences, action commit).
* :mod:`repro.logic` — the rule languages PL, CQ(=,≠), UCQ, FO, plus SAT,
  datalog and answering-queries-using-views.
* :mod:`repro.automata` — DFA/NFA/AFA, regular-language rewriting, RPQs.
* :mod:`repro.analysis` — the decision procedures of Table 1
  (non-emptiness, validation, equivalence per class).
* :mod:`repro.guard` — the resource governor (deadlines, step budgets,
  memory ceilings, cancellation) every bounded procedure checkpoints
  against, plus deterministic fault injection.
* :mod:`repro.mediator` — SWS mediators (Definition 5.1) and the
  composition-synthesis procedures of Table 2.
* :mod:`repro.models` — the Roman and peer models and the Section 3
  translations into SWS classes.
* :mod:`repro.reductions` — executable hardness reductions (SAT, AFA,
  FO-satisfiability).
* :mod:`repro.workloads` — the travel-package scenario of Figure 1 and the
  generators the benchmarks sweep.

Quickstart::

    from repro.workloads.travel import travel_service, sample_database, booking_request
    service = travel_service()
    result = service.run(sample_database(), booking_request())
    print(result.output)
"""

from repro.core import SWS, SWSClass, SWSKind, SynthesisRule, TransitionRule, classify
from repro.data import Database, InputSequence, Relation, RelationSchema
from repro.guard import Budget, CancelToken, Guard

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "CancelToken",
    "Database",
    "Guard",
    "InputSequence",
    "Relation",
    "RelationSchema",
    "SWS",
    "SWSClass",
    "SWSKind",
    "SynthesisRule",
    "TransitionRule",
    "classify",
    "__version__",
]
