"""Measurement plumbing shared by the workloads and the traced run: spans,
time budgets, the reference clock, environment capture and peak memory.

Nothing here knows about timecaps; it only times callables.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

class Tracer:
    """In-memory spans: (name, start, end, parent index).  A span opened
    while another is open records that span as its cause."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else -1
        index = len(self.spans)
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        """Every closed span of this name, in seconds, in recording order."""
        return [end - start for n, start, end, _ in self.spans if n == name and end is not None]

    def median_ms(self, name: str, per: float = 1.0) -> float:
        values = self.durations(name)
        if not values:
            raise KeyError(f"no span named {name!r}")
        return float(np.median(values)) * 1e3 / per

    def dump(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]
        path.write_text(json.dumps(rows))


class Budget:
    """Wall-clock allowance for one phase of a run."""

    def __init__(self, seconds: float):
        self.deadline = time.perf_counter() + seconds

    def left(self) -> bool:
        return time.perf_counter() < self.deadline


# Reference kernel: fixed work shaped like the tape's, many small numpy ops
# with interpreter work between them, plus a contraction over an array the
# size of the toy model's class weights.  It allocates nothing large, so
# page faults, whose cost varies from process to process, stay out of it.
# REF_NOMINAL_S is about its time on the 2-core x86-64 VM the baseline was
# measured on (numpy 2.4, OpenBLAS, one thread).
REF_NOMINAL_S = 0.021
_REF_RNG = np.random.default_rng(20191126)
_REF_A = _REF_RNG.standard_normal((64, 16))
_REF_W = _REF_RNG.standard_normal((16, 32))
_REF_V = _REF_RNG.standard_normal((32, 8, 16))
_REF_CAPS = _REF_RNG.standard_normal((160, 16))
_REF_CW = _REF_RNG.standard_normal((160, 3, 16, 16))


def reference_kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        h = _REF_A @ _REF_W
        e = np.exp(np.tanh(h))
        y = np.einsum("ij,jkl->ikl", e / e.sum(axis=0, keepdims=True), _REF_V)
        parts = {"y": y, "h": h}
        acc += float(parts["y"][0, 0, 0]) + len(parts)
    for _ in range(4):
        acc += float(np.einsum("na,ncab->cnb", _REF_CAPS, _REF_CW)[0, 0, 0])
    return time.perf_counter() - start


class RefClock:
    """Scales wall times to the reference speed.

    The host's speed drifts by tens of percent over seconds (other tenants
    share the cores), and the drift moves the reference kernel and timecaps
    alike.  After each timed unit of work, ``factor()`` runs the kernel and
    returns REF_NOMINAL_S over the mean of its time before and after the
    unit; a wall time times that factor is the time the unit would take at
    nominal speed.  Raw times are reported beside the scaled ones.
    """

    def __init__(self):
        self.prev = reference_kernel()
        self.ref_times = [self.prev]

    def factor(self) -> float:
        cur = reference_kernel()
        self.ref_times.append(cur)
        mean = 0.5 * (self.prev + cur)
        self.prev = cur
        return REF_NOMINAL_S / mean


def percentile_ms(samples_s: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples_s), q)) * 1e3


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: Path) -> str:
    """HEAD's commit read from the .git directory; 'unknown' outside a checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_name() -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def os_threads():
    """Threads of this process, native BLAS workers included (Linux only)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def environment(root: Path, blas_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": {v: os.environ.get(v) for v in blas_vars},
        "os_threads": os_threads(),
        "timecaps_threads": os.environ.get("TIMECAPS_THREADS"),
        "commit": git_commit(root),
    }
