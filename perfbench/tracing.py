"""Span tracing around the calls into each photonlink module.

The tracer wraps public functions where each module looks them up: a
function is replaced in every ``photonlink`` module whose global namespace
holds it, so ``photonlink.optimize.ppm_mi_per_bin`` and
``photonlink.modulation.click_probs`` are traced without editing the
package.  A name that no longer exists is recorded as absent.

Spans (name, start, end, parent) are kept in flat arrays in memory and
summarised, or written out, when the run ends.  Self time is a span's
duration minus the time covered by its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# (defining module, function) -> span name
TRACED = (
    ("cli", "main", "cli.main"),
    ("noise", "click_probs", "noise.click_probs"),
    ("modulation", "ppm_mi_per_bin", "modulation.ppm_mi_per_bin"),
    ("modulation", "ook_mi_per_bin", "modulation.ook_mi_per_bin"),
    ("optimize", "optimize_M", "optimize.optimize_M"),
    ("optimize", "sweep_pie", "optimize.sweep_pie"),
    ("capacity", "shannon_capacity", "capacity.shannon_capacity"),
    ("capacity", "holevo_capacity", "capacity.holevo_capacity"),
    ("linkbudget", "rate_vs_distance", "linkbudget.rate_vs_distance"),
    ("receiver", "apply_module", "receiver.apply_module"),
    ("receiver", "concentration_efficiency", "receiver.concentration_efficiency"),
    ("receiver", "make_pattern", "receiver.make_pattern"),
    ("receiver", "detect_pattern", "receiver.detect_pattern"),
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ix = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.absent: list[str] = []
        self.linkbudget_rows = 0
        self.bytes_moved = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        spans_ix, starts, ends, parents, stack = self.name_ix, self.start, self.end, self.parent, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = len(spans_ix)
            spans_ix.append(ix)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                starts[span] = t0
                stack.pop()
            if name == "linkbudget.rate_vs_distance":
                self.linkbudget_rows += len(result)
            elif name == "receiver.apply_module":
                # computed from array sizes: the input field read, the output written
                self.bytes_moved += 2 * args[0].amps.nbytes
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every traced name in every loaded photonlink module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "photonlink" or n.startswith("photonlink.")]
        for home, attr, name in TRACED:
            original = getattr(sys.modules.get(f"photonlink.{home}"), attr, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Calls, total and self seconds per span name."""
        n = len(self.name_ix)
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name in self.names:
            out[name]
        for i in range(n):
            entry = out[self.names[self.name_ix[i]]]
            dur = self.end[i] - self.start[i]
            entry["calls"] += 1
            entry["total_s"] += dur
            entry["self_s"] += dur - child_time[i]
        return dict(out)

    def write_spans(self, path: str) -> None:
        """Tab-separated spans: index, name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name_ix)):
                fh.write(
                    f"{i}\t{self.names[self.name_ix[i]]}\t{self.start[i]!r}\t{self.end[i]!r}\t{self.parent[i]}\n"
                )
