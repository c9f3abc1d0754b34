"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of the program where the program looks
them up, so no program file changes.  Every call of a wrapped function
becomes a span: name, start, end, parent span and run id, kept in flat
in-memory arrays until :meth:`SpanRecorder.save` writes them out at the end
of the run.  A span's self time is its duration minus the time its direct
children cover; calls nest strictly, so the children of a span never
overlap and their durations simply add up.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np


class SpanRecorder:
    """Flat, append-only store of spans; ``run`` tags the spans recorded next."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.run_id = array("i")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.run = 0
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.start_ns)

    def wrap(self, name: str, fn: Callable) -> Callable:
        """Return ``fn`` wrapped so that every call records one span."""
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        nid = self._name_ids[name]
        name_id, parent, run_id = self.name_id, self.parent, self.run_id
        start_ns, end_ns, stack = self.start_ns, self.end_ns, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_ns)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            run_id.append(self.run)
            start_ns.append(0)
            end_ns.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end_ns[idx] = clock()
                start_ns[idx] = t0
                stack.pop()

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run_id": np.frombuffer(self.run_id, dtype=np.intc).copy(),
            "start_ns": np.frombuffer(self.start_ns, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_ns, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) as a compressed ``.npz``."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextlib.contextmanager
def patched(
    recorder: SpanRecorder, targets: Sequence[tuple[object, str, str]]
) -> Iterator[SpanRecorder]:
    """Replace ``owner.attr`` by a recording wrapper for every
    ``(owner, attr, span_name)`` target; restore every original on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for owner, attr, name in targets:
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, recorder.wrap(name, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


@dataclass(frozen=True)
class Totals:
    """Aggregates over the spans of a set of names.

    ``ns``/``self_ns`` cover every span; ``run_ns``/``run_self_ns``
    only spans inside a loop span (the loop span included); ``sweep_calls``
    only calls that began after the first step of their loop, so one-time
    work before the first step is not counted as per-step work.
    """

    sweep_calls: int
    ns: int
    self_ns: int
    run_ns: int
    run_self_ns: int


class SpanSummary:
    """Per-name totals of a recorder's spans, with ``loop`` spans (one solve)
    split into ``step`` spans (one sweep)."""

    def __init__(self, recorder: SpanRecorder, loop: str, step: str) -> None:
        a = recorder.arrays()
        n = len(a["start_ns"])
        names = recorder.names
        ids = {name: i for i, name in enumerate(names)}
        name_id, parent = a["name_id"], a["parent"].astype(np.intp)
        dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_ns = dur - covered

        # index of the enclosing loop span (itself for a loop span), -1 outside
        is_loop = name_id == ids.get(loop, -1)
        owner = np.where(is_loop, np.arange(n), -1)
        up = parent.copy()
        pending = (owner < 0) & (up >= 0)
        while pending.any():
            hits = up[pending]
            owner[pending] = np.where(is_loop[hits], hits, -1)
            up[pending] = parent[hits]
            pending = (owner < 0) & (up >= 0)
        in_run = owner >= 0

        is_step = (name_id == ids.get(step, -1)) & in_run
        first_step = np.full(n, np.iinfo(np.int64).max)
        np.minimum.at(first_step, owner[is_step], a["start_ns"][is_step])
        in_sweep = in_run & (a["start_ns"] >= first_step[np.where(in_run, owner, 0)])

        self.sweeps = int(np.count_nonzero(is_step))
        k = len(names)

        def per_name(mask, weights=None):
            w = None if weights is None else weights[mask]
            return np.bincount(name_id[mask], weights=w, minlength=k)

        everything = np.ones(n, dtype=bool)
        self._names = ids
        self._sweep_calls = per_name(in_sweep)
        self._ns = per_name(everything, dur)
        self._self_ns = per_name(everything, self_ns)
        self._run_ns = per_name(in_run, dur)
        self._run_self_ns = per_name(in_run, self_ns)

    def totals(self, names: Sequence[str]) -> Totals:
        idx = [self._names[name] for name in names if name in self._names]
        return Totals(
            sweep_calls=int(self._sweep_calls[idx].sum()),
            ns=int(self._ns[idx].sum()),
            self_ns=int(self._self_ns[idx].sum()),
            run_ns=int(self._run_ns[idx].sum()),
            run_self_ns=int(self._run_self_ns[idx].sum()),
        )
