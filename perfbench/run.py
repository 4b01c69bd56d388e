"""dcic benchmark: one workload per process, closed loop, one unit at a time.

    python3 perfbench/run.py --workload prior_5k --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/`` of the
same checkout, and the run fails if it is not there. ``--trace 0`` prints
the end-to-end metrics, ``--trace 1`` the per-layer ones (see README.md).
The next-to-last stdout line is a JSON report with every metric, the
machine facts and the failures; the last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")

# A run measures a fixed number of units, so every commit is timed on the
# same work and the percentiles keep their meaning: --seconds' worth at the
# unit time measured when the benchmark was defined (2 CPUs, OpenBLAS
# 0.3.31), rounded up to whole grid cycles, and never fewer than MIN_UNITS.
# 11 prior_5k units give the tail percentile its ten units beyond; getars_500
# covers each grid cell at least twice, because its unit time varies
# threefold with how fast the seed's fit converges.
REF_UNIT_S = {"prior_5k": 2.0, "getars_500": 2.0, "joint_1k": 3.6}
MIN_UNITS = {"prior_5k": 11, "getars_500": 18, "joint_1k": 1}
SETUP_PROBES = 5
TAIL_BEYOND = 10
MAX_LISTED_FAILURES = 20

# End-to-end metrics on the result line (declared in BENCHMARK.json), and
# those only in the report line: see README.md for why each is not gated.
GATED_UNITS = {"setup_s": "s", "reps_per_s": "1/s", "peak_rss_mb": "MB"}
REPORT_ONLY_UNITS = {"rep_s_p50": "s", "rep_s_tail": "s", "alpha_l1": "L1",
                     "target_acc": "frac", "fail_frac": "frac"}


def pin_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread; must run before numpy is imported.
    Returns the CPU count this process may use.

    On a shared 2-CPU host, two BLAS threads made identical prior_5k units
    swing by about 25% with the neighbours' load; with one thread they stay
    within about 5%, and the second CPU is left to the OS and the set-up
    probes."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program():
    """Import dcic from this checkout's src/ and the benchmark's workloads."""
    sys.path[:0] = [SRC, HERE]
    import dcic
    if not os.path.abspath(dcic.__file__).startswith(SRC + os.sep):
        raise ImportError(f"dcic was imported from {dcic.__file__}, not {SRC}")
    import workloads
    return workloads


def blas_threads(np):
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "lib*openblas*.so*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(np, nproc):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {"nproc": nproc, "cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(np),
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
            "platform": platform.platform()}


def unit_count(workload, cycle, seconds, traced):
    """Units one run measures; a traced run runs each unit twice."""
    n = math.ceil(seconds / REF_UNIT_S[workload] / (2 if traced else 1))
    if not traced:
        n = max(n, MIN_UNITS[workload])
    return -(-n // cycle) * cycle


def setup_probe(workload, seed, units):
    """Set-up as a user pays it: import the program and make the inputs, in a
    fresh process. Prints the seconds taken."""
    start = time.perf_counter()
    wl = import_program().WORKLOADS[workload]
    wl(seed, units)
    print(json.dumps({"setup_s": time.perf_counter() - start}))


def probe_setup_seconds(workload, seed, units):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload, "--seed", str(seed), "--units", str(units)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def tail(durations):
    """(value, percentile, units beyond it): the highest order statistic
    with at least TAIL_BEYOND units above it; the maximum when there are
    too few units for that."""
    ordered = sorted(durations)
    n = len(ordered)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    return ordered[k], pct, n - 1 - k


class Runner:
    """Runs units, times them and keeps the failure tally."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures = []

    def execute(self, index):
        """(seconds, UnitResult or None) of unit ``index``; a unit that
        raises or fails a check is counted as failed."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            res = self.wl.run_unit(index)
        except Exception as exc:  # a failed unit is counted, the run goes on
            self.failures.append(f"unit {index}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - start, None
        seconds = time.perf_counter() - start
        if res.problems:
            self.failures.append(f"unit {index}: " + "; ".join(res.problems))
        return seconds, res

    def compare(self, index, a, b):
        """Bitwise comparison of two runs of the same unit; a mismatch
        counts one more failed unit."""
        if a is None or b is None:
            return
        same = len(a.fingerprint) == len(b.fingerprint) and all(
            x.shape == y.shape and x.tobytes() == y.tobytes()
            for x, y in zip(a.fingerprint, b.fingerprint))
        if not same:
            self.failures.append(f"unit {index}: re-run differs bit for bit")

    @property
    def failed(self):
        return min(len(self.failures), self.attempted)


def measure(units, step):
    """Closed loop over unit indices 0 .. units-1; returns the seconds taken."""
    start = time.perf_counter()
    for i in range(units):
        step(i)
    return time.perf_counter() - start


def quality(results):
    ok = [r for r in results if r is not None and not r.problems]
    out = {"alpha_l1": statistics.fmean(r.alpha_l1 for r in ok) if ok else float("nan")}
    accs = [r.target_acc for r in ok if r.target_acc is not None]
    if accs:
        out["target_acc"] = statistics.fmean(accs)
    return out


def run_untraced(runner, units, probe):
    """Times ``units`` units. ``probe()`` measures one set-up; it runs
    SETUP_PROBES times spread over the loop, outside the unit timings, so
    every probe sees the CPU in the same busy state (an idle CPU imports
    numpy about half as fast)."""
    _, warm = runner.execute(0)  # warm-up, and the determinism reference
    durations, results, probes, probe_wall = [], [], [], []
    probes_after = Counter(int((j + 0.5) * units / SETUP_PROBES)
                           for j in range(SETUP_PROBES))

    def step(i):
        seconds, res = runner.execute(i)
        durations.append(seconds)
        results.append(res)
        if i == 0:
            runner.compare(0, warm, res)
        for _ in range(probes_after[i]):
            start = time.perf_counter()
            probes.append(probe())
            probe_wall.append(time.perf_counter() - start)

    elapsed = measure(units, step) - sum(probe_wall)
    value, pct, beyond = tail(durations)
    metrics = {"rep_s_p50": statistics.median(durations), "rep_s_tail": value,
               "reps_per_s": len(durations) / elapsed,
               "setup_s": statistics.median(probes)}
    detail = {"units": len(durations), "measured_s": elapsed,
              "rep_s_p50_samples": len(durations), "rep_s_tail_percentile": pct,
              "rep_s_tail_samples": len(durations), "rep_s_tail_beyond": beyond,
              "unit_s": durations, "setup_probes_s": probes}
    return {**metrics, **quality(results)}, detail


def run_traced(runner, units, tracer, trace_mod):
    """Each unit runs twice, untraced and traced in alternating order; the
    pair is compared bit for bit and their times give the overhead."""
    _, warm = runner.execute(0)
    times = {False: [], True: []}

    def step(i):
        order = (False, True) if i % 2 == 0 else (True, False)
        got = {}
        for traced in order:
            if traced:
                tracer.install()
                tracer.unit = i
                with tracer.span("unit"):
                    seconds, got[traced] = runner.execute(i)
                tracer.uninstall()
            else:
                seconds, got[traced] = runner.execute(i)
            times[traced].append(seconds)
        runner.compare(i, got[False], got[True])
        if i == 0:
            runner.compare(0, warm, got[False])

    measure(units, step)
    input_sets = len(getattr(runner.wl, "inputs", ())) or units
    metrics = trace_mod.layer_metrics(tracer, units, input_sets)
    metrics["trace_overhead_frac"] = sum(times[True]) / sum(times[False]) - 1.0
    unit_s = sum(times[True]) / units
    shares = {k: v / unit_s for k, v in metrics.items()
              if trace_mod.unit_of(k) == "s/unit"}
    return metrics, {"units": units, "traced_unit_s": unit_s, "shares": shares,
                     "untraced_sites": tracer.missing}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(REF_UNIT_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--units", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    nproc = pin_blas_threads()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.units)
        return 0

    origin = time.perf_counter()
    workloads = import_program()
    import numpy as np
    cls = workloads.WORKLOADS[args.workload]
    units = unit_count(args.workload, cls.cycle, args.seconds, bool(args.trace))
    tracer = trace_mod = None
    if args.trace:
        import tracing as trace_mod
        tracer = trace_mod.Tracer()
        tracer.install()
    wl = cls(args.seed, units)
    own_setup_s = time.perf_counter() - origin
    if tracer is not None:
        tracer.uninstall()
    runner = Runner(wl)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine_facts(np, nproc),
              "own_setup_s": own_setup_s}
    if args.trace:
        metrics, detail = run_traced(runner, units, tracer, trace_mod)
        os.makedirs(OUT, exist_ok=True)
        spans_path = os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.json")
        tracer.write(spans_path, origin)
        detail["spans_file"] = os.path.relpath(spans_path)
        metric_units = {k: trace_mod.unit_of(k) for k in metrics}
        gated = metrics
    else:
        metrics, detail = run_untraced(
            runner, units, lambda: probe_setup_seconds(args.workload, args.seed, units))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["fail_frac"] = runner.failed / runner.attempted
        metric_units = {**GATED_UNITS, **REPORT_ONLY_UNITS}
        gated = {k: metrics[k] for k in GATED_UNITS}
    failed = runner.failed
    report.update(detail, attempted=runner.attempted, failed=failed,
                  failures=runner.failures[:MAX_LISTED_FAILURES],
                  metrics={k: {"value": v, "unit": metric_units[k]}
                           for k, v in metrics.items()})
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": metric_units[k]}
                                  for k, v in gated.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
