"""Measure one workload in this process and print a JSON report as the last line.

Started by run.py, one process per workload run, so that a crash or a memory
blow-up ends only this workload and its peak RSS is its own.  The process
guards itself with an address-space limit (setrlimit) and a per-input
deadline (an interval timer); it runs no threads and no process pool.  Every
time it reports is scaled to a nominal machine speed (perfbench/speed.py).

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR [--full]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback

ADDRESS_SPACE_LIMIT = 2 << 30  # bytes
WALL_LIMIT = 2  # a deadline lasts at most this many times its length in wall time


class DeadlineExceeded(BaseException):
    """Raised by the interval timer; a BaseException so `except Exception` cannot swallow it."""


class Guard:
    """Per-input deadline in nominal seconds (perfbench/speed.py); raises only while armed.

    The ITIMER_REAL timer counts wall time, which includes the meter's samples
    and any slowness of the machine.  When it fires before the input has used
    the deadline by the meter's reckoning, it is re-armed for the rest, up to
    WALL_LIMIT times the deadline in wall time.
    """

    def __init__(self, meter) -> None:
        self.armed = False
        self.meter = meter
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame) -> None:
        if not self.armed:
            return
        factor = self.meter.recent_factor()
        left = self.deadline_s - (self.meter.clock() - self.t0) * factor
        wall_left = self.wall_end - time.perf_counter()
        if left > 0 and wall_left > 0:
            signal.setitimer(signal.ITIMER_REAL, max(0.01, min(left / factor, wall_left)))
            return
        self.armed = False
        raise DeadlineExceeded()

    def run(self, deadline_s: float, fn, *args):
        """Return (status, value-or-exception text, elapsed seconds on the meter's clock)."""
        self.deadline_s = deadline_s
        self.wall_end = time.perf_counter() + WALL_LIMIT * deadline_s
        self.t0 = t0 = self.meter.clock()
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            value = fn(*args)
            self.armed = False
            status = "ok"
        except DeadlineExceeded:
            status, value = "deadline", f"DeadlineExceeded: over {deadline_s:g} nominal s"
        except MemoryError as exc:
            status, value = "memory", f"MemoryError: {exc}"
        except Exception as exc:  # the sweep boundary: record the input and go on
            status, value = "error", f"{type(exc).__name__}: {str(exc)[:200]}{_where(exc)}"
        finally:
            self.armed = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        return status, value, self.meter.clock() - t0


def _where(exc: BaseException) -> str:
    """The innermost traceback frame inside the package, as ' at module:line in func'."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if "posetdecomp" + os.sep in f.filename]
    if not frames:
        return ""
    f = frames[-1]
    return f" at posetdecomp/{os.path.basename(f.filename)}:{f.lineno} in {f.name}"


def measure(wl, items, guard, meter, tracer, stop) -> list:
    """Closed loop over `items` (cycled) until `stop(done, elapsed)`; one record per input.

    `elapsed` is in nominal seconds, each input's time scaled by the speed the
    meter saw last, so that how many inputs a run measures does not depend on
    how fast the machine happened to be.  Each record holds the input's
    unscaled time and the range of meter samples taken while it ran.  With a
    tracer, each call into the program is a span tagged with the input's index.
    """
    call = tracer.span if tracer is not None else (lambda name, fn, *args: fn(*args))
    records = []
    elapsed = 0.0
    i = 0
    while not stop(i, elapsed):
        key, item = items[i % len(items)]
        if tracer is not None:
            tracer.poset_id = i
        first = meter.mark()
        status, value, took = guard.run(wl.deadline_s, wl.run, item, call)
        elapsed += took * meter.recent_factor()
        if tracer is not None:
            tracer.end_item()
        rec = {"key": key, "s": took, "status": status, "samples": (first, meter.mark())}
        if status == "ok":
            rec.update(value)
            if not value["ok"]:
                rec["status"] = "false"
        else:
            rec["exception"] = value
            print(f"[{wl.name}] input {key}: {value}", file=sys.stderr)
        records.append(rec)
        i += 1
    return records


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--full", action="store_true", help="one whole pass, untimed window")
    ap.add_argument("--workdir", required=True, help="input files and the span log go here")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import numpy
    import posetdecomp
    from posetdecomp.kernels import BACKEND

    if not os.path.abspath(posetdecomp.__file__).startswith(src + os.sep):
        raise ImportError(f"posetdecomp imported from {posetdecomp.__file__}, not {src}")
    import spans
    from speed import Meter
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    meter = Meter()
    guard = Guard(meter)
    meter.start()
    setups = []
    for _ in range(wl.setups):
        first, t0 = meter.mark(), meter.clock()
        population = wl.setup(args.workdir)
        setups.append((meter.clock() - t0, (first, meter.mark())))
    # the seed fixes the visiting order; --full visits the whole population once
    items = list(population) if args.full else wl.order(population, args.seed)
    n = len(items)
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "population": len(population),
        "pass": n,
        "deadline_s": wl.deadline_s,
        "tail_q": wl.tail_q,
        "backend": BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }

    if args.full:
        stop = lambda done, elapsed: done == n
    elif args.trace:
        stop = lambda done, elapsed: done == n or (done > 0 and elapsed >= args.seconds / 2)
    else:
        stop = lambda done, elapsed: elapsed >= args.seconds and done % n == 0

    t0 = meter.clock()
    records = measure(wl, items, guard, meter, None, stop)
    report["window_s"] = meter.clock() - t0
    report["global"] = wl.global_checks()

    traced = []
    if args.trace:
        tracer = spans.Tracer(meter.clock)
        spans.install(tracer)
        # a traced set-up gives fresh inputs and shows enumeration and dumps
        fresh = dict(wl.setup(args.workdir))
        again = [(key, fresh[key]) for key, _ in items[: len(records)]]
        traced = measure(wl, again, guard, meter, tracer, lambda done, _: done == len(again))
    meter.stop()

    for rec in records + traced:
        rec["raw_s"] = rec["s"]
        rec["s"] *= meter.factor(*rec.pop("samples"))
    report["raw_setup_s"] = [raw for raw, _ in setups]
    report["setup_s"] = [raw * meter.factor(*span) for raw, span in setups]
    report["meter"] = {"samples": len(meter.samples), "unit_s_median": statistics.median(meter.samples),
                       "spent_s": meter.spent}
    if args.trace:
        report["trace"] = {
            "posets": len(traced),
            "untraced_s": sum(r["s"] for r in records),
            "traced_s": sum(r["s"] for r in traced),
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "items": tracer.items,
            "spans": len(tracer.span_name),
        }
        tracer.write(os.path.join(args.workdir, f"{wl.name}.spans"))
    report["records"] = records
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
