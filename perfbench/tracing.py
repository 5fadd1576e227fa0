"""In-memory span tracer that wraps the package's public functions.

Spans are recorded from the benchmark's side of each layer boundary:
the tracer replaces a function in the namespace its caller looks it up
in (for example ``gallai_ramsey.verifier.exists_path_through``, which is
what the verifier's search loop calls), so no code in ``src/`` changes.
Each span has a name, a start, an end and the id of the enclosing span.
Spans live in flat arrays and are written out once, when the run ends.

Pool workers started by ``decide_upper(threads=2)`` are forked after the
wrappers are installed, so they run wrapped code too, but their spans
stay in the worker's memory and are not collected.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.hits: dict[int, int] = defaultdict(int)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, module, attr: str, name, count_hits: bool = False) -> None:
        """Replace module.attr by a span-recording wrapper.

        `name` is a span name, or a function of the call's arguments that
        returns one. With `count_hits`, a call whose result is neither
        None nor False counts as a hit for its span name.
        """
        fn = getattr(module, attr)
        namer = name if callable(name) else None
        fixed = None if namer else self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nid = fixed if namer is None else self._id(namer(*args))
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1])
            self.end.append(0.0)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if count_hits and result is not None and result is not False:
                self.hits[nid] += 1
            return result

        self._patched.append((module, attr, fn))
        setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def __len__(self) -> int:
        return len(self.start)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, hits, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; spans nest strictly because the traced code is single
        threaded.
        """
        count = len(self.start)
        child = [0.0] * count
        for sid in range(count):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        out = {
            name: {"calls": 0, "hits": self.hits.get(nid, 0), "s": 0.0, "self_s": 0.0}
            for nid, name in enumerate(self.names)
        }
        for sid in range(count):
            row = out[self.names[self.name[sid]]]
            dur = self.end[sid] - self.start[sid]
            row["calls"] += 1
            row["s"] += dur
            row["self_s"] += dur - child[sid]
        return out

    def write(self, path: Path, context: dict) -> None:
        """Write the spans as gzip CSV: id,name,start_s,end_s,parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for key, value in context.items():
                f.write(f"# {key}: {value}\n")
            f.write("id,name,start_s,end_s,parent\n")
            for sid in range(len(self.start)):
                f.write(
                    f"{sid},{self.names[self.name[sid]]},"
                    f"{self.start[sid] - t0:.9f},{self.end[sid] - t0:.9f},"
                    f"{self.parent[sid]}\n"
                )
