"""Spans and counters recorded by the benchmark around its calls into ma_lin.

Spans are kept in memory and written out once, when the run ends.  Recording
is off (every call a no-op) until `start_round` turns it on, so the untraced
rounds of a traced run execute the same code with nothing recorded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: list[tuple[int, str, str, float]] = []
        self.round: int | None = None
        self.rounds: list[int] = []  # the rounds recorded
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def start_round(self, index: int | None) -> None:
        """Record into round `index` from now on; None stops recording."""
        self.round = index
        if index is not None:
            self.rounds.append(index)

    @contextmanager
    def span(self, name: str, op: str):
        if self.round is None:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = {"name": name, "op": op, "round": self.round, "parent": parent,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def count(self, name: str, op: str, value: float) -> None:
        if self.round is not None:
            self.counts.append((self.round, op, name, float(value)))

    def mark(self) -> tuple[int, int]:
        """A point to roll back to; take it only with no span open."""
        return len(self.spans), len(self.counts)

    def rollback(self, mark: tuple[int, int]) -> None:
        """Forget everything recorded since `mark`."""
        del self.spans[mark[0]:]
        del self.counts[mark[1]:]

    def round_totals(self, index: int) -> dict[str, float]:
        """Span time per name (as '<name>_s') and counter sums, for one round."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s["round"] == index:
                out[s["name"] + "_s"] += s["end"] - s["start"]
        for rnd, _op, name, value in self.counts:
            if rnd == index:
                out[name] += value
        return out

    def layer_busy(self) -> dict[str, float]:
        """Self time per layer (span time minus its children's), summed over rounds."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        busy: dict[str, float] = defaultdict(float)
        for k, s in enumerate(self.spans):
            busy[s["name"].split(".")[0]] += s["end"] - s["start"] - child[k]
        return dict(busy)

    def write(self, path, extra: dict) -> None:
        data = dict(extra)
        data["layer_busy_s"] = self.layer_busy()
        data["spans"] = self.spans
        data["counts"] = [{"round": r, "op": o, "name": n, "value": v}
                          for r, o, n, v in self.counts]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
