"""The execution knobs, unified: one :class:`ExecutionConfig` for every layer.

Grounding and the fixpoint run one pipeline (DESIGN.md §2, §9): the
slot-compiled id-space grounder feeding the delta-driven fixpoint, so
neither has a knob.  What is left to choose lives here (DESIGN.md
§10):

* the knob vocabularies (:data:`CONSTRUCTIONS`, :data:`BACKENDS`) and
  their defaults;
* :class:`ExecutionConfig`, the one value every layer accepts via a
  ``config=`` keyword -- grounding, fixpoint, circuit construction,
  the :mod:`repro.api` facade and the serving stack
  (:mod:`repro.serving`) all thread the same frozen object.

It deliberately imports nothing from the rest of the package so every
layer -- including :mod:`repro.datalog.grounding` at the bottom of the
stack -- can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Mapping, Optional, Tuple, Union

__all__ = [
    "CONSTRUCTIONS",
    "DEFAULT_CONSTRUCTION",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ExecutionConfig",
    "DEFAULT_CONFIG",
    "coerce_config",
]

#: Circuit constructions (Sections 3-6): ``auto`` runs the paper's
#: decision tree (:func:`repro.constructions.auto.provenance_circuit`),
#: ``generic`` pins Theorem 3.1, ``fringe`` pins Theorem 6.2.
CONSTRUCTIONS: Tuple[str, ...] = ("auto", "generic", "fringe")
DEFAULT_CONSTRUCTION = "auto"

#: Numeric kernel backends (DESIGN.md §13): ``python`` runs the
#: exec-generated pure-Python kernels (no dependencies), ``vectorized``
#: runs whole-column NumPy ufunc expressions over the same buffers and
#: requires NumPy (the ``perf`` extra), ``auto`` picks ``vectorized``
#: when NumPy is importable and falls back to ``python`` otherwise.
BACKENDS: Tuple[str, ...] = ("python", "vectorized", "auto")
DEFAULT_BACKEND = "python"

_VOCABULARIES = {
    "construction": CONSTRUCTIONS,
    "backend": BACKENDS,
}


@dataclass(frozen=True)
class ExecutionConfig:
    """One immutable bundle of execution knobs, accepted everywhere.

    ``None`` fields mean "use the repo default", so a partially
    specified config composes cleanly across layers: the construction
    layer reads ``construction``/``optimize_depth``, the fixpoint and
    circuit runtime read ``backend``, the fixpoint and the facade read
    ``prune``, and each ignores the fields it does not own.  The
    ``resolved_*`` properties apply the defaults.

    Configs are hashable and cheap; build them once and thread them
    (:class:`repro.api.Session` and :class:`repro.serving.CircuitServer`
    both key caches on them).
    """

    construction: Optional[str] = None
    optimize_depth: bool = False
    backend: Optional[str] = None
    #: Drop rules unreachable from the target before grounding
    #: (:func:`repro.datalog.analysis.prune_unreachable`).  Off by
    #: default: pruning is exact for the target cone but removes
    #: unreachable IDB predicates from the result set entirely.
    prune: bool = False

    def __post_init__(self) -> None:
        for field, allowed in _VOCABULARIES.items():
            value = getattr(self, field)
            if value is not None and value not in allowed:
                raise ValueError(
                    f"unknown {field} {value!r}; expected one of {allowed} (or None for the default)"
                )

    @property
    def resolved_construction(self) -> str:
        return self.construction or DEFAULT_CONSTRUCTION

    @property
    def resolved_backend(self) -> str:
        """The configured backend name with the default applied.

        Note this is the *name* resolution only; ``"auto"`` is resolved
        against NumPy availability lazily at evaluation time by
        :func:`repro.backends.resolve_backend`, so building a config
        never imports NumPy.
        """
        return self.backend or DEFAULT_BACKEND

    def evolve(self, **changes) -> "ExecutionConfig":
        """A copy with *changes* applied (``dataclasses.replace``)."""
        return replace(self, **changes)

    def key(self) -> Tuple:
        """A stable, hashable identity (used in cache keys)."""
        return tuple(getattr(self, f.name) for f in fields(self))


#: The all-defaults config; what ``config=None`` coerces to.
DEFAULT_CONFIG = ExecutionConfig()

ConfigLike = Union[None, ExecutionConfig, Mapping[str, object]]


def coerce_config(config: ConfigLike) -> ExecutionConfig:
    """Normalize ``None`` | mapping | :class:`ExecutionConfig` to a config.

    Mappings (e.g. a JSON body field in the serving layer) are passed
    to the constructor, so unknown keys and values fail loudly.
    """
    if config is None:
        return DEFAULT_CONFIG
    if isinstance(config, ExecutionConfig):
        return config
    if isinstance(config, Mapping):
        return ExecutionConfig(**config)
    raise TypeError(
        f"config must be an ExecutionConfig, a mapping of its fields, or None; got {type(config).__name__}"
    )
