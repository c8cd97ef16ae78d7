"""In-memory spans for the benchmark's traced run.

A span records one call from the benchmark into a layer of the package: its
name (``<layer>.<function>``), start, end, parent span and the run it belongs
to. Spans are kept in memory and written out once, when the run ends. The
tracer also adds up its own bookkeeping time, reported as ``trace.overhead_s``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict[str, Any]] = []
        self.overhead_s = 0.0
        self._open: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        entered = time.perf_counter()
        record: dict[str, Any] = {
            "run": self.run_id,
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        start = time.perf_counter()
        try:
            yield record
        finally:
            end = time.perf_counter()
            self._open.pop()
            record["start"] = start - self._origin
            record["end"] = end - self._origin
            self.overhead_s += (start - entered) + (time.perf_counter() - end)

    def self_times(self, root: int) -> dict[str, float]:
        """Self time per layer over ``root`` and the spans below it.

        A span's self time is its duration minus the time its child spans
        cover; the layer is the part of its name before the first dot.
        """
        children: dict[int, list[dict[str, Any]]] = defaultdict(list)
        for record in self.spans[root + 1 :]:
            children[record["parent"]].append(record)
        totals: dict[str, float] = defaultdict(float)
        pending = [self.spans[root]]
        while pending:
            record = pending.pop()
            below = children[record["id"]]
            covered = sum(child["end"] - child["start"] for child in below)
            layer = record["name"].split(".", 1)[0]
            totals[layer] += record["end"] - record["start"] - covered
            pending.extend(below)
        return dict(totals)

    def write(self, path: Path, header: dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "run": self.run_id, "spans": self.spans}, handle, indent=1)
            handle.write("\n")
