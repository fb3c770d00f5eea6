"""The one per-object memo idiom used by every cache in tiltlab.

A result lives in the memo table of the object it was computed from.
Operations that change nothing (``trim``, ``minimize``, the smart
truncations) hand back their input, so its table stays warm; the price is
that objects are shared and must never be written into once built.
"""
from __future__ import annotations


def memo(obj) -> dict:
    """The memo table that ``obj`` carries under a single attribute.

    Every key starts with the name of the cache that owns it, so several
    caches can share one object (a ``ProjComplex`` keeps its expansion,
    window truncation and the hom packages into it) without colliding.
    The caller builds missing entries itself.
    """
    # plain attribute access: reading obj.__dict__ would turn the object's
    # inline attribute storage into a dict and slow every later lookup
    table = getattr(obj, "_memo", None)
    if table is None:
        table = obj._memo = {}
    return table
