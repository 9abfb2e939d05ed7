"""Name → procedure registry for the serving layer.

The scheduler, worker pool, and ``python -m repro.serve`` all refer to
decision procedures by name: names are picklable (so jobs cross process
boundaries without shipping code objects), stable (so cache keys and
JSONL job files survive refactors of import paths), and enumerable (so
the CLI can list what the service answers).

Every registered procedure is one of the library's ``@guarded()``
entry points: it returns an :class:`~repro.analysis.verdict.Answer`
(a tripped run's UNKNOWN carries its :class:`~repro.guard.Trip`, which
retry and the dead-letter queue read) and accepts a ``guard=`` keyword —
the scheduler uses it to attach the per-job
:class:`~repro.guard.Budget` and cancellation token.  Search bounds that
belong to the question (``max_session_length``, ``max_runs``, ...) are
ordinary keyword arguments, so they enter the job fingerprint.

``register_procedure`` lets tests and downstream users extend the
registry (e.g. with slow stubs for scheduler tests); names registered
this way resolve only in the registering process, so batch files meant
for the worker pool should stick to the built-ins.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping

from repro import analysis, mediator
from repro.errors import ReproError

__all__ = [
    "UnknownProcedureError",
    "PROCEDURES",
    "get_procedure",
    "procedure_names",
    "register_procedure",
    "resolve_factory",
]


class UnknownProcedureError(ReproError):
    """Raised when a job names a procedure the registry does not know."""


def _builtin_procedures() -> dict[str, Callable[..., Any]]:
    table: dict[str, Callable[..., Any]] = {}
    for name in (
        # Table 1 — nonemptiness.
        "nonempty_pl",
        "nonempty_pl_nr_sat",
        "nonempty_cq",
        "nonempty_cq_nr",
        "nonempty_fo_bounded",
        # Table 1 — validation.
        "validate_pl",
        "validate_pl_nr_sat",
        "validate_cq_nr",
        # Table 1 — equivalence / containment.
        "equivalent_pl",
        "equivalent_cq",
        "equivalent_cq_nr",
        "equivalent_fo_bounded",
        "contained_pl",
        "contained_cq",
        "contained_cq_nr",
    ):
        table[name] = getattr(analysis, name)
    for name in (
        # Table 2 — mediator composition.
        "compose_pl_regular",
        "compose_pl_prefix",
        "compose_mdtb_pl",
        "compose_cq_nr",
        "compose_uc2rpq",
    ):
        table[name] = getattr(mediator, name)
    return table


#: The live registry.  Mutated only through :func:`register_procedure`.
PROCEDURES: dict[str, Callable[..., Any]] = _builtin_procedures()


def procedure_names() -> tuple[str, ...]:
    """Registered procedure names, sorted."""
    return tuple(sorted(PROCEDURES))


def get_procedure(name: str) -> Callable[..., Any]:
    """The registered procedure called ``name``."""
    try:
        return PROCEDURES[name]
    except KeyError:
        raise UnknownProcedureError(
            f"unknown procedure {name!r}; known: {', '.join(procedure_names())}"
        ) from None


def register_procedure(
    name: str, func: Callable[..., Any], *, replace: bool = False
) -> None:
    """Add ``func`` to the registry under ``name``.

    Registration is process-local; worker processes resolve names
    against their own copy of the registry, so custom procedures only
    work with the in-process executor unless the worker initializer
    re-registers them.
    """
    if name in PROCEDURES and not replace:
        raise ValueError(f"procedure {name!r} already registered")
    PROCEDURES[name] = func


#: Modules JSONL job files may draw instance factories from.  Kept to
#: the library's own workload generators so a job file names *which
#: benchmark instance* to build, not arbitrary code to run.
_FACTORY_MODULES = (
    "repro.workloads.scaling",
    "repro.workloads.pl_services",
    "repro.workloads.random_sws",
    "repro.workloads.travel",
    "repro.workloads.editing",
)


def resolve_factory(path: str) -> Callable[..., Any]:
    """Resolve a ``module:function`` instance factory for CLI job files.

    Only functions inside ``repro.workloads`` modules are allowed.
    """
    module_name, sep, func_name = path.partition(":")
    if not sep or not func_name:
        raise ValueError(f"factory {path!r} is not of the form 'module:function'")
    if module_name not in _FACTORY_MODULES:
        allowed = ", ".join(_FACTORY_MODULES)
        raise ValueError(
            f"factory module {module_name!r} not allowed; use one of: {allowed}"
        )
    module = importlib.import_module(module_name)
    func = getattr(module, func_name, None)
    if not callable(func):
        raise ValueError(f"{path!r} does not name a callable factory")
    return func
