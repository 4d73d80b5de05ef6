"""In-memory span tracing for the benchmark's traced runs.

Spans are recorded from outside the library: ``wrap_layers`` replaces the
module-level names that callers look up (for example
``radial_gabor.frames._averaged_shift_values``, which ``build_frame`` calls
from its ring thread pool) with wrappers that open a span around the call
and attach counts.  ``Tracer.unwrap`` restores the originals, so untraced
operations run the library untouched.

A span opened on a thread with no open span of its own (a worker of the
library's ring pool) takes as parent the innermost open span of the
thread that created the tracer, which is the thread generating the load.
Self time subtracts the union of the child intervals, not their sum,
because children on different threads overlap.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float
    op: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: list[tuple[int | None, str, float]] = []  # (op, name, value)
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._stacks.get(self._main)
        return main[-1] if main else None

    @contextmanager
    def span(self, name: str):
        ident = threading.get_ident()
        stack = self._stacks.setdefault(ident, [])
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic, so pool threads may record concurrently
            self.spans.append(Span(sid, name, parent, ident, start, end, self.op))

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def wrap(self, owner, attr: str, name: str, counter=None, timed: bool = True) -> None:
        """Replace ``owner.attr`` by a wrapper that records a span named
        ``name`` (when ``timed``) and the counts ``counter(args, out)``."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if timed:
                with self.span(name):
                    out = original(*args, **kwargs)
            else:
                out = original(*args, **kwargs)
            if counter is not None:
                for key, value in counter(args, out).items():
                    self.count(key, value)
            return out

        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def unwrap(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        lines = [
            f"{s.id},{s.name},{'' if s.parent is None else s.parent},{s.thread},"
            f"{s.start:.9f},{s.end:.9f},{'' if s.op is None else s.op}"
            for s in self.spans
        ]
        path.write_text("id,name,parent,thread,start,end,op\n" + "\n".join(lines) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``busy`` (durations summed over threads), ``self``
    (busy minus the union of each span's direct children, clipped to the
    span) and ``wall`` (union of the name's own intervals)."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"busy": 0.0, "self": 0.0, "wall": 0.0})
    intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]
        )
        out[s.name]["busy"] += s.end - s.start
        out[s.name]["self"] += s.end - s.start - covered
        intervals[s.name].append((s.start, s.end))
    for name, iv in intervals.items():
        out[name]["wall"] = union_length(iv)
    return dict(out)


def ring_threads(spans: list[Span], parent_name: str, child_prefix: str) -> dict[int, int]:
    """Per op: the largest number of distinct threads that ran children
    named ``child_prefix*`` of one ``parent_name`` span."""
    parents = {s.id: s.op for s in spans if s.name == parent_name}
    threads: dict[int, set[int]] = defaultdict(set)
    for s in spans:
        if s.parent in parents and s.name.startswith(child_prefix):
            threads[s.parent].add(s.thread)
    per_op: dict[int, int] = defaultdict(int)
    for pid, ts in threads.items():
        per_op[parents[pid]] = max(per_op[parents[pid]], len(ts))
    return dict(per_op)


def wrap_layers(tracer: Tracer) -> None:
    """Wrap every library layer at the names its callers look up."""
    from radial_gabor import approximation, cli, frames, lattice, stft
    from radial_gabor.profiles import RadialProfile

    def cg(args, out):
        return {"frames.reconstruct_calls": 1, "frames.cg_iterations": out.iterations}

    tracer.wrap(cli, "build_frame", "frames.build",
                lambda a, out: {"frames.atom_matrix_mb": out.atom_matrix.nbytes / 1e6})
    tracer.wrap(frames, "lattice_table", "lattice.table")
    tracer.wrap(frames, "_shifted_window_samples", "stft.ring_samples")
    tracer.wrap(frames, "_averaged_shift_values", "stft.kernel",
                lambda a, out: {"stft.atoms_integrated": 1,
                                "stft.phi_grid_points": a[2] * a[0].radii.size})
    tracer.wrap(stft, "sph_bessel_values", "bessel.sph_values",
                lambda a, out: {"bessel.sph_values_points": np.size(a[1])})
    tracer.wrap(RadialProfile, "evaluate", "profiles.evaluate",
                lambda a, out: {"profiles.evaluate_points": np.size(a[1])})
    tracer.wrap(cli, "reconstruct", "frames.reconstruct", cg)
    tracer.wrap(approximation, "reconstruct", "frames.reconstruct", cg)
    tracer.wrap(cli, "coeffs_to_csv", "cli.write",
                lambda a, out: {"cli.output_bytes": Path(a[1]).stat().st_size})
    tracer.wrap(cli, "nterm_greedy", "approximation.nterm")
    tracer.wrap(cli, "linear_approx", "approximation.linear")
    tracer.wrap(cli, "gabor_baseline_2d", "approximation.baseline")
    tracer.wrap(approximation, "h_sequence", "embeddings.h_sequence")
    tracer.wrap(cli, "covered_2d", "lattice.covered_2d",
                lambda a, out: {"lattice.covered_fraction": int(bool(out))})
    # called once per candidate ring and per LatticeIndex: count only
    tracer.wrap(lattice, "angle_count", "lattice.angle_count",
                lambda a, out: {"lattice.angle_count_calls": 1}, timed=False)
