"""The ``@hot_path`` marker: the in-source half of the hot-path registry.

PR 6 bought its events/sec trajectory by hand-applying hot-path idioms
(guarded logging, ``__slots__``, allocation-free loops, cached lookups)
to a specific set of functions.  simlint's perf layer keeps those functions
fast by checking the SIM2xx performance rules against the *hot closure* —
everything reachable from the registered hot roots — and the roots are
declared twice, deliberately:

* in source, with this decorator (greppable, reviewable next to the
  code it protects);
* in ``tools/simlint/hotpaths.py``, the registry the analyzer loads.

The analyzer cross-checks the two: a decorated function missing from the
registry, or a registered simulator root missing the decorator, is a
SIM207 registry-drift finding.  Hot functions outside ``repro.simulator``
(e.g. ``repro.jobs.coflow.Coflow.release``) are registry-only — importing
this module from lower layers would create an import cycle.

The decorator is **zero runtime cost**: it runs once at import time,
sets one attribute for introspection, and returns the function object
unchanged — no wrapper, no indirection, nothing on the call path.
"""

from __future__ import annotations

from typing import Callable, TypeVar

_F = TypeVar("_F", bound=Callable[..., object])

#: Attribute set on decorated functions (introspection/tests only).
HOT_PATH_ATTR = "__simlint_hot_path__"


def hot_path(func: _F) -> _F:
    """Mark ``func`` as a hot-path root for simlint's perf layer.

    Returns ``func`` itself (no wrapper): the call path is untouched.
    """
    setattr(func, HOT_PATH_ATTR, True)
    return func


def is_hot_path(func: object) -> bool:
    """Whether ``func`` carries the hot-path marker."""
    return getattr(func, HOT_PATH_ATTR, False) is True
