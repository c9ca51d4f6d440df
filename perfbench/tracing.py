"""Time program functions from outside by replacing them where callers look them up.

``repro.nn.layers`` reaches ``conv2d`` as ``F.conv2d``, so replacing the
attribute on ``repro.nn.functional`` times every convolution without editing
the program.  Methods are replaced on the class that defines them.  Each
replacement is undone by :meth:`Tracer.restore`, which the benchmark calls
before it exits, so a traced run leaves the program exactly as it found it.

Seconds are inclusive (a layer's own time plus the layers it calls).  A name
that is already being timed is not timed again when it re-enters, so a
function wrapped at two lookup points never counts twice.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


class Tracer:
    """Per-name call counts, inclusive seconds and computed bytes."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.bytes: Dict[str, int] = defaultdict(int)
        self.spans: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._saved: List[Tuple[Any, str, Any]] = []
        self._active: set = set()

    def wrap(self, owner: Any, attr: str, name: str,
             after: Optional[Callable[[Any, "Tracer"], None]] = None,
             log_spans: bool = False) -> None:
        """Replace ``owner.attr`` with a timed version recorded as ``name``.

        ``owner`` is a module or the class that defines ``attr``.
        ``after(result, tracer)`` runs on each result (outside the timed
        span), e.g. to add computed bytes.  ``log_spans`` keeps the
        (start, end) of every call, which is how ticks are measured.
        """
        if isinstance(owner, type):
            original = vars(owner)[attr]   # KeyError: attr is inherited
        else:
            original = getattr(owner, attr)
        active = self._active
        seconds, calls, spans = self.seconds, self.calls, self.spans

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if name in active:
                return original(*args, **kwargs)
            active.add(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                seconds[name] += end - start
                calls[name] += 1
                active.discard(name)
                if log_spans:
                    spans[name].append((start, end))
            if after is not None:
                after(result, self)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, timed)

    def time_backward(self, tensor: Any, name: str) -> None:
        """Add the backward closure of ``tensor`` to ``name``'s seconds."""
        backward = getattr(tensor, "_backward", None)
        if backward is None:
            return
        active, seconds = self._active, self.seconds

        @functools.wraps(backward)
        def timed(grad):
            if name in active:
                return backward(grad)
            active.add(name)
            start = time.perf_counter()
            try:
                return backward(grad)
            finally:
                seconds[name] += time.perf_counter() - start
                active.discard(name)

        tensor._backward = timed

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
