"""The one per-object memo idiom used by every cache in tiltlab."""
from __future__ import annotations


def memo(obj) -> dict:
    """The memo table that ``obj`` carries under a single attribute.

    Every key starts with the name of the cache that owns it, so several
    caches can share one object (a ``ProjComplex`` keeps its expansion,
    heart resolutions and the hom packages into it) without colliding.
    The caller builds missing entries itself.
    """
    # plain attribute access: reading obj.__dict__ would turn the object's
    # inline attribute storage into a dict and slow every later lookup
    table = getattr(obj, "_memo", None)
    if table is None:
        table = obj._memo = {}
    return table
