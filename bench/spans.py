"""In-memory spans around the benchmark's calls into the package.

A span records its id, parent, name, start and end.  Work counts (states,
vertices, bytes, ...) are read off each call's arguments and result once
the traced pass has ended, so counting never runs inside a span or inside
the timed pass.  A layer's self time is its spans' durations minus the time
covered by their child spans.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from sandpiles import enabled_moves


def _census_counts(args, res) -> dict:
    return {"states": res.vertex_count, "levels": res.depth}


def _build_counts(args, g) -> dict:
    # Moves fired are counted with the public kernel rather than read off
    # the graph's edge labels, so the count survives a build without them.
    moves = sum(len(enabled_moves(v, g.model)) for v in g.vertices)
    return {"vertices": g.vertex_count, "edges": len(g.edges), "moves": moves, "calls": 1}


COUNTERS: dict[str, Callable[[tuple, object], dict]] = {
    "orbit.sink_census.spm": _census_counts,
    "orbit.sink_census.sspm": _census_counts,
    "orbit.build.sspm": _build_counts,
    "orbit.lattice_check": lambda args, res: {"pairs": args[0].vertex_count * (args[0].vertex_count - 1) // 2},
    "orbit.export.json": lambda args, res: {"bytes": len(res)},
    "orbit.export.dot": lambda args, res: {"bytes": len(res)},
    "structure.enumerate_fixed_points": lambda args, res: {"shapes": len(res)},
    "cli.count": lambda args, res: {"rows": int(args[0][args[0].index("--n") + 1])},
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Pass an instance as a workload's `call` to record one span per call."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._pending: list[tuple[Span, tuple, object]] = []

    def __call__(self, name: str, fn: Callable, *args):
        span = Span(len(self.spans), self._open[-1] if self._open else None, name, 0.0)
        self.spans.append(span)
        self._open.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            span.end = time.perf_counter()
            self._open.pop()
        if name in COUNTERS:
            self._pending.append((span, args, result))
        return result

    def finish(self) -> None:
        """Read the work counts off the recorded calls and drop the results."""
        for span, args, result in self._pending:
            span.counts = COUNTERS[span.name](args, result)
        self._pending.clear()

    def layers(self) -> dict[str, float]:
        """Self seconds and summed counts per span name, as `<name>.s` and
        `<name>.<count>`."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, seconds in zip(self.spans, own):
            out[f"{s.name}.s"] += seconds
            for key, value in s.counts.items():
                out[f"{s.name}.{key}"] += value
        return dict(out)


def write(path: Path, traced: list[tuple[int, str, Tracer]]) -> int:
    """Write every span of every (round, workload, tracer) as one JSON line,
    replacing the file, and return how many spans were written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w") as fh:
        for round_, workload, tracer in traced:
            for s in tracer.spans:
                record = {"round": round_, "workload": workload, **asdict(s)}
                fh.write(json.dumps(record) + "\n")
                count += 1
    return count
