"""Batched protocol kernels and their dispatch registry.

The protocol counterpart of :mod:`repro.dynamics.batched`: on the
engine's native path ``B`` trials advance as one ``(B, n)`` informed
matrix, and everything *protocol*-specific — which nodes transmit, what
they reach, when the process stalls — arrives through a
:class:`BatchedProtocol` provider looked up in an MRO-walking registry
(:func:`batched_protocol_for`).  Protocol families register a kernel
factory next to their protocol class; plain subclasses (a
re-parameterised p-flood, say) inherit their family's kernel, and
unregistered protocols always work through the
:class:`GenericBatchedProtocol` fallback, which reports no native
capability.

Replay chunks never consult this registry: they run the serial
reference loop :func:`repro.protocols.runner.spread` per trial.

The native contract (``native_capable = True``): the protocol's
transmissions are expressed as a *member-set* neighborhood query.
:meth:`BatchedProtocol.batch_active` returns the transmitting member
rows for the active trials, the engine answers them through the
dynamics kernel's ``batch_neighborhood``, and :meth:`batch_absorb` /
:meth:`batch_stalled` maintain the ``(B, n)`` protocol state.
Flooding, p-flooding, and expiring flooding compose this way with
**every** native dynamics kernel (edge, geometric, mobility); per-node
sampling protocols (push / pull / push–pull) have no member-set form,
so their native runs use the engine's per-trial fallback with
chunk-spawned streams.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.protocols.base import Flooding, SpreadingProtocol
from repro.protocols.zoo import (
    ExpiringFlooding,
    ProbabilisticFlooding,
    PullGossip,
    PushGossip,
    PushPullGossip,
)
from repro.util.validation import require

__all__ = [
    "BatchedProtocol",
    "GenericBatchedProtocol",
    "FloodingBatched",
    "register_batched_protocol",
    "batched_protocol_for",
    "registered_protocol_families",
]


class BatchedProtocol:
    """Batched kernel provider for one protocol family.

    Constructed from a protocol instance and the model size ``n``; one
    provider serves one chunk of trials.  Per-chunk mutable protocol
    state lives in the ``(B, ...)`` arrays returned by
    :meth:`batch_state` and is threaded back through the other hooks.
    """

    #: Whether the protocol's transmissions reduce to a member-set
    #: neighborhood query (the native composition above).  ``False``
    #: routes native runs to the engine's per-trial fallback.
    native_capable: bool = False

    def __init__(self, protocol: SpreadingProtocol, num_nodes: int) -> None:
        self.protocol = protocol
        self.num_nodes = num_nodes

    # -- native contract ----------------------------------------------------

    def batch_state(self, count: int,
                    sources: Sequence[Sequence[int]]) -> Any:
        """Protocol state of *count* trials as stacked arrays."""
        raise NotImplementedError(
            f"{type(self).__name__} provides no native kernels")

    def batch_active(self, state: Any, informed: np.ndarray,
                     act: np.ndarray, t: int,
                     rng: np.random.Generator) -> np.ndarray | None:
        """Transmitting member rows ``(len(act), n)`` of the active trials.

        ``None`` means "the informed rows themselves" — the engine then
        hands the informed matrix to the dynamics kernel unchanged,
        which keeps flooding's native draws byte-for-byte what they
        were before the protocol subsystem existed.
        """
        raise NotImplementedError(
            f"{type(self).__name__} provides no native kernels")

    def batch_absorb(self, state: Any, act: np.ndarray, fresh: np.ndarray,
                     t: int) -> None:
        """Native state update: *fresh* rows of the *act* trials were
        informed at time *t*.  Default: no-op (stateless protocols)."""

    def batch_stalled(self, state: Any, informed: np.ndarray,
                      act: np.ndarray, t: int) -> np.ndarray | None:
        """Per-trial retire mask ``(len(act),)`` after round *t*, or
        ``None`` when the protocol never stalls."""
        return None


class GenericBatchedProtocol(BatchedProtocol):
    """Fallback provider for protocols without native kernels.

    The engine runs the serial per-round rules trial by trial instead,
    with generators spawned from the chunk stream.
    """

    native_capable = False


# ---------------------------------------------------------------------------
# built-in kernels
# ---------------------------------------------------------------------------

class FloodingBatched(BatchedProtocol):
    """Flooding kernel: the identity composition.

    The native hooks hand the informed matrix through untouched, so
    native flooding draws exactly what the dynamics kernel alone draws.
    """

    native_capable = True

    def batch_state(self, count, sources):
        return None

    def batch_active(self, state, informed, act, t, rng):
        return None  # transmit the informed rows themselves


class _MaskProtocolBatched(BatchedProtocol):
    """Shared kernel for protocols whose round is ``N(active) & ~informed``
    with a per-round activation mask (p-flooding, expiring flooding)."""

    native_capable = True

    def batch_state(self, count, sources):
        return None


class ProbabilisticFloodingBatched(_MaskProtocolBatched):
    """p-flooding kernel: one Bernoulli ``(B, n)`` draw per round."""

    def batch_active(self, state, informed, act, t, rng):
        p = self.protocol.transmit_probability
        draws = rng.random((act.shape[0], self.num_nodes))
        return informed[act] & (draws < p)


class ExpiringFloodingBatched(_MaskProtocolBatched):
    """Expiring-flooding kernel: an ``(B, n)`` informed-at clock."""

    def batch_state(self, count, sources):
        informed_at = np.full((count, self.num_nodes), -1, dtype=np.int64)
        for i, src in enumerate(sources):
            informed_at[i, list(src)] = 0
        return informed_at

    def batch_active(self, state, informed, act, t, rng):
        k = self.protocol.active_steps
        return informed[act] & (state[act] > t - k)

    def batch_absorb(self, state, act, fresh, t):
        rows = state[act]
        rows[fresh] = t
        state[act] = rows

    def batch_stalled(self, state, informed, act, t):
        k = self.protocol.active_steps
        return ~(informed[act] & (state[act] > t - k)).any(axis=1)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: Registered kernel factories, keyed by protocol class.  A factory
#: maps ``(protocol, num_nodes)`` to a provider, or to ``None`` to
#: decline the instance (the lookup then continues up the MRO).
ProtocolKernelFactory = Callable[[SpreadingProtocol, int],
                                 Optional[BatchedProtocol]]

_REGISTRY: dict[type, ProtocolKernelFactory] = {}


def register_batched_protocol(protocol_type: type,
                              factory: ProtocolKernelFactory) -> None:
    """Register *factory* as the kernel provider for *protocol_type*.

    Covers subclasses via MRO dispatch, exactly like
    :func:`repro.dynamics.batched.register_batched_dynamics`: a lookup
    for a subclass finds the nearest registered ancestor, and
    re-registering a class replaces its factory (idempotent imports).
    """
    require(isinstance(protocol_type, type)
            and issubclass(protocol_type, SpreadingProtocol),
            "protocol_type must be a SpreadingProtocol subclass")
    _REGISTRY[protocol_type] = factory


def batched_protocol_for(protocol: SpreadingProtocol,
                         num_nodes: int) -> BatchedProtocol:
    """The kernel provider serving *protocol*'s family on ``n`` nodes.

    Walks ``type(protocol).__mro__`` for the nearest registered factory
    that accepts the instance; falls back to
    :class:`GenericBatchedProtocol` when none does.  Never returns
    ``None`` — every protocol is at least generically simulable.
    """
    for cls in type(protocol).__mro__:
        factory = _REGISTRY.get(cls)
        if factory is not None:
            provider = factory(protocol, num_nodes)
            if provider is not None:
                return provider
    return GenericBatchedProtocol(protocol, num_nodes)


def registered_protocol_families() -> tuple[type, ...]:
    """Protocol classes with registered kernel factories (docs/tests)."""
    return tuple(_REGISTRY)


# Built-in registrations.  Push/pull/push–pull transmit by per-node
# neighbor sampling — no member-set form, hence no native kernels; the
# engine runs their vectorised serial rules per trial, so registering
# the generic provider simply documents the family.
register_batched_protocol(Flooding, FloodingBatched)
register_batched_protocol(ProbabilisticFlooding, ProbabilisticFloodingBatched)
register_batched_protocol(ExpiringFlooding, ExpiringFloodingBatched)
register_batched_protocol(PushGossip, GenericBatchedProtocol)
register_batched_protocol(PullGossip, GenericBatchedProtocol)
register_batched_protocol(PushPullGossip, GenericBatchedProtocol)
