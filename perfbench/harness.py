"""Closed-loop runner: one operation at a time, each timed, checked and classified."""

from __future__ import annotations

import signal
import statistics
import time
from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from workloads import Op, Workload

END_TO_END = [
    ("good_ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("good_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


class OpTimeout(BaseException):
    """Raised inside a call that overran its workload's limit.

    A BaseException, so library code that catches Exception cannot absorb it.
    """


def _alarm(signum, frame):
    raise OpTimeout()


# A host that shares its cores can run the same call 1.6x slower from one
# second to the next.  A fixed probe, timed between calls, tracks that speed;
# every call time is rescaled to the speed at which the probe takes
# PROBE_REF_S (on an Intel Xeon 2-vCPU VM it takes 0.7 to 1.2 ms).
PROBE_REF_S = 1.0e-3
PROBE_EVERY_S = 0.1


def _probe() -> complex:
    """Fixed work in the library's style: a complex three-term loop and small numpy calls."""
    x, y = 1.0 + 0j, 0j
    for i in range(2000):
        x, y = (0.31 + 0.1j + 1.7 * (i % 3)) * x - 0.9 * y, x
        if abs(x) > 1e10:
            x, y = x * 1e-10, y * 1e-10
    c = np.ones(3)
    for _ in range(140):
        c = np.convolve(c[:8], (1.0, -0.5, 0.25))
    return x + c[0]


class Speed:
    """Scale factor from wall time to reference-speed time, from recent probes."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=5)
        self.last = float("-inf")

    def factor(self) -> float:
        if time.perf_counter() - self.last >= PROBE_EVERY_S:
            start = time.perf_counter()
            _probe()
            self.last = time.perf_counter()
            self.recent.append(self.last - start)
        return PROBE_REF_S / statistics.median(self.recent)


@dataclass(frozen=True)
class Sample:
    label: str
    seconds: float       # wall time of the call
    reason: str | None   # None when the output passed its check
    scale: float = 1.0   # host-speed factor at the time of the call

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


def run_op(op: Op, limit_s: float | None = None, tracer=None, scale: float = 1.0) -> Sample:
    """Time one call; a raise, a timeout or a failed check makes it a failed operation."""
    if tracer is not None:
        tracer.op_id += 1
        tracer.active = True
    reason = None
    out = None
    start = time.perf_counter()
    try:
        if limit_s:
            # the limit is in reference-speed time, like the reported times
            signal.signal(signal.SIGALRM, _alarm)
            signal.setitimer(signal.ITIMER_REAL, limit_s / scale)
        try:
            out = op.call()
        finally:
            if limit_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        reason = "timeout"
    except Exception as exc:  # any raise out of the library is a failed operation
        reason = type(exc).__name__
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if reason is None:
        try:
            reason = op.check(out)
        except Exception as exc:  # an output the check cannot read
            reason = f"bad_output:{type(exc).__name__}"
    op.cleanup()
    return Sample(op.label, elapsed, reason, scale)


def measure(workload: Workload, seconds: float | None = None, rotations: int | None = None,
            tracer=None) -> list[Sample]:
    """Whole rotations, until `seconds` of wall time have passed or `rotations` are done.

    Stopping only between rotations keeps the mix of operations the same in
    every run, whatever the speed.
    """
    samples: list[Sample] = []
    speed = Speed()
    start = time.perf_counter()
    done = 0
    while True:
        for op in workload.ops:
            samples.append(run_op(op, workload.limit_s, tracer, speed.factor()))
        done += 1
        if rotations is not None and done >= rotations:
            return samples
        if rotations is None and time.perf_counter() - start >= seconds:
            return samples


def summarize(samples: list[Sample], rotation: int, wall: bool = False) -> dict[str, float]:
    """The timing metrics at reference speed, or as measured on the wall clock.

    The percentiles are taken within each rotation, whose mix of operations
    is fixed, and the median over rotations is reported: a slow phase of the
    host then moves whole rotations, not the boundary between two groups of
    operations that a pooled percentile can sit on.
    """
    times = np.array([s.seconds if wall else s.ref_seconds for s in samples])
    per_rotation = times[:len(times) // rotation * rotation].reshape(-1, rotation)
    good = sum(s.reason is None for s in samples)
    return {
        "good_ops_per_s": good / float(times.sum()),
        "op_p50_ms": float(np.median(np.percentile(per_rotation, 50, axis=1))) * 1e3,
        "op_p90_ms": float(np.median(np.percentile(per_rotation, 90, axis=1))) * 1e3,
        "good_frac": good / len(samples),
    }


def failures(samples: list[Sample]) -> dict[str, int]:
    return dict(sorted(Counter(s.reason for s in samples if s.reason is not None).items()))


def failures_by_label(samples: list[Sample]) -> dict[str, dict[str, int]]:
    out: dict[str, Counter] = {}
    for s in samples:
        if s.reason is not None:
            out.setdefault(s.label, Counter())[s.reason] += 1
    return {label: dict(c) for label, c in sorted(out.items())}


def beyond(samples: list[Sample], ms: float) -> int:
    """How many calls took longer than `ms` at reference speed."""
    return sum(s.ref_seconds * 1e3 > ms for s in samples)


def reproducible(samples: list[Sample], rotation: int) -> bool:
    """Whether every operation got the same verdict in every rotation.

    The inputs repeat from rotation to rotation, so a verdict that changes
    means the measurement cannot be trusted; timeouts depend on speed and
    are left out of the comparison.
    """
    seen: dict[int, str | None] = {}
    for i, s in enumerate(samples):
        if s.reason == "timeout":
            continue
        if seen.setdefault(i % rotation, s.reason) != s.reason:
            return False
    return True
