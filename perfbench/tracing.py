"""In-memory span recorder for the benchmark's traced runs.

Nothing here touches ``src/``: the recorder times calls *into* the
library by swapping a module or class attribute for a timing wrapper
(``Tracer.patch``).  The wrappers are installed only around a traced
op (``begin_op`` / ``end_op``) and removed again afterwards, so the
untraced ops of the same run execute the library's own functions.

Spans are kept in flat typed arrays (no per-span Python object, so the
cyclic collector never scans them) and written once, at the end, as
Chrome trace-event JSON, which opens in Perfetto (ui.perfetto.dev).
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple, Union

#: The root span of every traced op.
OP_SPAN = "op"


class Tracer:
    """Record spans (name, start, end, parent, op id) and counters."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.counters: Dict[str, float] = defaultdict(float)
        self.origin = perf_counter()
        self._stack: List[int] = []
        self._op = -1
        self._root = -1
        self._patches: List[Tuple[object, str, object, object]] = []

    # -- recording ------------------------------------------------- #

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self._op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def begin_op(self, op: int) -> None:
        """Install every wrapper and open the op's root span."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op = op
        self._root = self.begin(OP_SPAN)

    def end_op(self) -> None:
        """Close the root span and restore the library's functions."""
        self.finish(self._root)
        self._op = -1
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- wrappers -------------------------------------------------- #

    def patch(
        self,
        owner: object,
        attr: str,
        name: Union[str, Callable[[tuple, dict], str]],
        on_result: Optional[Callable] = None,
    ) -> None:
        """Time every call to ``owner.attr`` during traced ops.

        ``name`` is the span name, or a function of the call's
        arguments that returns it.  ``on_result(tracer, result, args,
        kwargs)`` runs after the span has closed, so work it does
        (counting, pickling for byte sizes) is not charged to the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.finish(idx)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        self._patches.append((owner, attr, original, wrapper))

    # -- reading --------------------------------------------------- #

    def aggregate(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds).

        Self time is a span's duration minus the durations of its
        direct children.
        """
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, List[float]] = {}
        for i in range(n):
            row = out.setdefault(self._names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {k: (int(v[0]), v[1], v[2]) for k, v in out.items()}

    def write_chrome(self, path: str, metadata: dict) -> None:
        """Write every span as Chrome trace-event JSON (Perfetto-ready)."""
        pid = os.getpid()
        with open(path, "w") as fh:
            fh.write('{"displayTimeUnit": "ms", "otherData": ')
            fh.write(json.dumps(metadata))
            fh.write(', "traceEvents": [')
            for i in range(len(self.start)):
                name = self._names[self.name_id[i]]
                event = {
                    "name": name,
                    "cat": name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (self.start[i] - self.origin) * 1e6,
                    "dur": (self.end[i] - self.start[i]) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {"op": self.op_id[i], "parent": self.parent[i]},
                }
                fh.write(("," if i else "") + json.dumps(event))
            fh.write("]}\n")
