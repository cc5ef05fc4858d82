"""Exception hierarchy shared by all kfx modules, and the default cap
that `CapExceededError` enforces."""

DEFAULT_CAP = 5_000_000  # isomorphism classes one enumeration may produce


class KfxError(Exception):
    """Base class for all library errors."""


class GraphParseError(KfxError):
    """Malformed edge-list input (syntax, duplicate edges, loops, bad indices)."""


class ParameterError(KfxError, ValueError):
    """Family/formula parameters outside their admissible range."""


class NotConnectedError(KfxError):
    """Operation requires a connected graph."""


class NotUnicyclicError(KfxError):
    """Operation requires a connected graph with exactly one cycle."""


class EngineMismatchError(KfxError):
    """An engine given an input it cannot read: the structural engine a
    graph that is neither a tree nor unicyclic, the oracle a decomposition."""


class CapExceededError(KfxError):
    """An enumeration would pass its cap, by its class count or its catalog
    size; `search.class_count` raises it before any catalog is built."""
