"""In-memory spans around the benchmark's calls into treesec.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 for none) and ``op`` the id of the operation it belongs
to (-1 for set-up).  The layer of a span is its name up to the first dot;
``bench`` spans are the harness itself.
"""

import json
import time
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext


class NullTracer:
    """Records nothing; used for the untraced operations."""

    op = -1

    def span(self, name):
        return nullcontext()


class Tracer:
    def __init__(self, peak_names=()):
        self.spans = []
        self.op = -1
        self._open = []
        # names whose tracemalloc peak is recorded while tracemalloc runs
        self._peak_names = frozenset(peak_names)
        self.peaks_mb = defaultdict(float)
        self.failed = {}  # op id -> name of the innermost span an exception left

    @contextmanager
    def span(self, name):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1, self.op]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        peak = name in self._peak_names and tracemalloc.is_tracing()
        if peak:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        try:
            yield
        except BaseException:
            self.failed.setdefault(self.op, name)
            raise
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()
            if peak:
                mb = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peaks_mb[name] = max(self.peaks_mb[name], mb)

    def extend(self, spans, op):
        """Append spans recorded by another process as operation ``op``
        (perf_counter is the system-wide monotonic clock on Linux, so times
        stay comparable)."""
        off = len(self.spans)
        for name, start, end, parent, _ in spans:
            self.spans.append([name, start, end, parent + off if parent >= 0 else -1, op])

    def mean_seconds(self):
        """Mean duration of the spans of each name."""
        total = defaultdict(float)
        calls = Counter()
        for name, start, end, _, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        return {name: total[name] / calls[name] for name in total}

    def self_seconds_by_layer(self):
        """Total self time per layer over the operations (set-up excluded):
        span duration minus the time its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if op >= 0:
                out[name.split(".", 1)[0]] += (end - start) - covered[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
