"""The one memo idiom used by every cache in tiltlab.

A result lives in the memo table of the object it was computed from.
Complexes (``ProjComplex``, ``RepComplex``) share one table per distinct
content: on its first ``memo`` call a complex computes its exact
``content_key()`` and looks it up in a weak-valued table in
``memo(alg)``.  A content-equal complex that is still alive is its
representative, whose table it shares (and keeps alive); otherwise it
becomes the representative itself.  So a result lives as long as any
object with its content, and a rebuilt complex finds its results
already there.  ``canon`` names the representative; memo keys that hold
a source complex use it, and ``minimize`` returns it.

Operations that change nothing (``trim``, ``minimize``, the smart
truncations) hand back their input, so its table stays warm.  The price
is that objects are shared and must never be written into once built;
that rule is also what keeps a content key valid for the object's life.
"""
from __future__ import annotations

import weakref


def memo(obj) -> dict:
    """The memo table that ``obj`` carries under a single attribute.

    Every key starts with the name of the cache that owns it, so several
    caches can share one object (a ``ProjComplex`` keeps its expansion,
    window truncation and the hom packages into it) without colliding.
    The caller builds missing entries itself.  An object with a
    ``content_key`` shares the table of its representative (``canon``).
    """
    # plain attribute access: reading obj.__dict__ would turn the object's
    # inline attribute storage into a dict and slow every later lookup
    table = getattr(obj, "_memo", None)
    if table is None:
        rep = (_representative(obj) if hasattr(type(obj), "content_key")
               else obj)
        if rep is obj:
            table = obj._memo = {}
        else:
            obj._canon = rep
            table = obj._memo = rep._memo
    return table


def _representative(obj):
    """The live object with obj's content; obj itself when it is the first."""
    store = memo(obj.alg)
    reps = store.get(("content",))
    if reps is None:
        reps = store[("content",)] = weakref.WeakValueDictionary()
    return reps.setdefault(obj.content_key(), obj)


def canon(obj):
    """The representative whose memo table obj shares (obj when it is one)."""
    memo(obj)
    return getattr(obj, "_canon", obj)
