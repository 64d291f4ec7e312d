"""Call tracing for the benchmark's traced pass.

Each hooked function is replaced, for the life of one benchmark process,
by a wrapper stored under the module attribute its caller looks it up
through (``memqkd.cli.write_lines``, ``memqkd.simulation.pulse_rng``, ...),
so no source file is edited. A hook whose module or attribute no longer
exists is listed in ``absent`` and its metrics read 0; a hook that is never
called reads 0 calls.

Hook kinds:

- ``count``: call count only (cheap enough for the innermost key-rate call).
- ``timed``: call count, total time and self time, aggregated per name.
- ``span``: as ``timed``, and every call is also kept as a span record
  ``[id, parent_id, name, start_ns, end_ns]``; the parent is the nearest
  enclosing span.
- ``file_span``: a span named after the file written, from the first
  argument: ``write_lines(".../pulses.csv", ...)`` becomes
  ``reports.pulses_csv``.

Self time is a call's duration minus the time of the hooked calls made
directly inside it.
"""

from __future__ import annotations

import importlib
from pathlib import Path
from time import perf_counter_ns

KINDS = ("count", "timed", "span", "file_span")


class Tracer:
    def __init__(self) -> None:
        #: name -> [calls, total_ns, self_ns]
        self.stats: dict[str, list[int]] = {}
        self.spans: list[list] = []
        self.absent: list[str] = []
        # Each frame is [child_ns, enclosing_span_id]; the root frame never pops.
        self._stack: list[list] = [[0, None]]
        self._installed: list[tuple[object, str, object]] = []

    def install(self, hooks) -> None:
        """Wrap each (module, attribute, name, kind) hook that exists."""
        for module_name, attr, name, kind in hooks:
            if kind not in KINDS:
                raise ValueError(f"unknown hook kind {kind!r}")
            if kind != "file_span":
                self.stats.setdefault(name, [0, 0, 0])
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            if kind == "count":
                wrapper = self._counted(fn, name)
            else:
                wrapper = self._timed(fn, name, kind)
            self._installed.append((module, attr, fn))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            module, attr, fn = self._installed.pop()
            setattr(module, attr, fn)

    def report(self) -> dict:
        """Plain-data view: stats in seconds, spans in ns from the first span."""
        origin = min((s[3] for s in self.spans), default=0)
        return {
            "stats": {
                name: [calls, total / 1e9, own / 1e9]
                for name, (calls, total, own) in self.stats.items()
            },
            "spans": [
                [sid, parent, name, start - origin, end - origin]
                for sid, parent, name, start, end in self.spans
            ],
            "absent": list(self.absent),
        }

    def _counted(self, fn, name: str):
        stats = self.stats[name]

        def counted(*args, **kwargs):
            stats[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _timed(self, fn, name: str, kind: str):
        stack, spans, all_stats = self._stack, self.spans, self.stats
        is_span = kind in ("span", "file_span")

        def timed(*args, **kwargs):
            if kind == "file_span":
                target = args[0] if args else kwargs.get("path", "unknown")
                metric = f"{name}.{Path(target).name.replace('.', '_')}"
            else:
                metric = name
            parent = stack[-1]
            frame = [0, parent[1]]
            if is_span:
                record = [len(spans), parent[1], metric, 0, 0]
                spans.append(record)
                frame[1] = record[0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                stack.pop()
                parent[0] += elapsed
                stats = all_stats.setdefault(metric, [0, 0, 0])
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if is_span:
                    record[3], record[4] = start, start + elapsed

        return timed
