"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD --seed N [--trace]
    python3 perfbench/worker.py --probe

The first thing the worker does is import recint and recint.cli from the
checkout's src/; the monotonic clock reading right after that import is
reported as "ready", so the parent can measure set-up time as process start
plus import.  --probe stops there.  Otherwise the worker runs the workload's
batch once, closed loop, and prints one JSON line: wall time, peak resident
set, one record per operation and, with --trace, the span totals and counters.

Reference speed.  The machines this runs on are shared, and the speed of one
core drifts by up to 2x over seconds to minutes as neighbours load it, which
moves a plain wall time by as much.  So the worker also times a small fixed
pure-Python chunk of Fraction arithmetic that does not touch recint (the
reference chunk): five times right after the import, and every SAMPLE_S
while the batch runs, from a timer signal, so that long operations are
sampled inside too.  Each stretch between two samples is rescaled by
REFERENCE_S / (mean chunk time at its two ends), and the chunks' own time is
left out.  The result is "reference seconds": the time the work would take
on a core that runs the chunk in REFERENCE_S.  Plain times are reported too.
"""

import os
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The reference chunk's time on an unloaded core of the machine the
#: benchmark was defined on (2-vCPU Xeon KVM guest, Python 3.11.7).
REFERENCE_S = 0.002
#: Period of the reference samples taken while a batch runs.
SAMPLE_S = 0.1

_XS = [Fraction(3**i + 1, 7 ** (i % 5) + 2) for i in range(24)]


def reference_chunk() -> float:
    """Seconds for a fixed dense product of 24x24 Fractions into a dict."""
    start = time.perf_counter()
    out: dict = {}
    for i, a in enumerate(_XS):
        for j, b in enumerate(_XS):
            out[i + j] = out.get(i + j, 0) + a * b
    return time.perf_counter() - start


class SpeedClock:
    """Plain and reference-second time of the code run inside `with`."""

    def __init__(self):
        self.plain = self.scaled = 0.0
        self.chunks: list[float] = []
        self._last = self._last_end = None

    def _sample(self, *_signal):
        start = time.perf_counter()
        chunk = reference_chunk()
        if self._last is not None:
            stretch = start - self._last_end
            self.plain += stretch
            self.scaled += stretch * REFERENCE_S / ((self._last + chunk) / 2)
        self._last, self._last_end = chunk, time.perf_counter()
        self.chunks.append(chunk)

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()


def main() -> int:
    sys.path.insert(0, SRC)
    import recint
    import recint.cli  # noqa: F401  (part of what a CLI user's process imports)

    ready = time.monotonic()
    if not os.path.abspath(recint.__file__).startswith(SRC + os.sep):
        print(f"worker: recint imported from {recint.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    import argparse
    import json
    import resource

    ref_ready = sorted(reference_chunk() for _ in range(5))[2]
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", nargs="?")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if args.probe:
        print(json.dumps({"ready": ready, "ref_ready": ref_ready}))
        return 0

    os.chdir(ROOT)  # corpus calls name specs/ relative to the checkout
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install(recint)
    import workloads

    ops = workloads.WORKLOADS[args.workload](args.seed)
    notes: dict = {}
    with SpeedClock() as clock:
        records = workloads.run_ops(ops, notes, tracer)
    result = {
        "ready": ready,
        "ref_ready": ref_ready,
        "refs": clock.chunks,
        "wall_s": clock.scaled,
        "plain_wall_s": clock.plain,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ops": records,
        "notes": notes,
    }
    if tracer is not None:
        result["stats"] = tracer.stats
        result["counters"] = tracer.counters
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
