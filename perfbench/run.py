"""The cheblink benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload a5-density --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  Inputs come from
``inputs.py`` and depend only on the workload and the seed.  Jobs run back to
back, whole cycles at a time, until ``--seconds`` have passed, and every
job's output is checked.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: job cost
(median and 90th percentile) in units of a fixed reference work timed
between job stages, set-up time, peak memory; job seconds are printed too.
``--trace 1`` runs a fixed number of jobs twice, first plain, then with
every public function of the package's layers wrapped in spans and counters
(``tracer.py``), and reports the per-layer metrics: totals over one traced
set-up plus those jobs.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full result, with provenance, is written under ``perfbench/results/``.
The exit code is 0 only when every job passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
SETUP_PROBES = 9
REFERENCE_STEPS = 18          # 15 to 30 ms on a 2.1 GHz Xeon, with the host's speed
PROBE_TIMEOUT = 60

PER_LAYER_TIMES = (
    "sft.orbit_list", "sft.exact_counts", "sft.chebotarev_report", "sft.realization_check",
    "cli.run_a5_experiment", "cli.render_row",
    "permgroup.generate_group", "permgroup.conjugacy_classes", "permgroup.coset_action",
    "permgroup.generated_set", "permgroup.all_subgroups",
    "covers.build_cover", "covers.verify_artin", "covers.verify_component_bijection",
    "freewords.braid_presentation", "quotients.quotient_search",
    "quotients.smith_normal_form", "quotients.generic_check",
)
# inclusive time, where the self time sits almost entirely in a child span
PER_LAYER_TOTALS = ("permgroup.all_subgroups",)
PER_LAYER_COUNTS = {
    "sft.enumerate_orbits.orbits": "sft.enumerate_orbits.yielded",
    "permgroup.mul.calls": "permgroup.mul.calls",
    "sft.exact_counts.calls": "sft.exact_counts.calls",
    "permgroup.generated_set.calls": "permgroup.generated_set.calls",
    "covers.decompose_loop.calls": "covers.decompose_loop.calls",
    "freewords.evaluate.calls": "freewords.evaluate.calls",
    "quotients.quotient_search.homs": "quotients.quotient_search.homs",
}


def import_package():
    """Import cheblink from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import cheblink
    if Path(cheblink.__file__).resolve().parent != ROOT / "src" / "cheblink":
        raise ImportError(f"cheblink imported from {cheblink.__file__}, not from this checkout")
    return cheblink


def git_commit():
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def p90(xs):
    """The 90th percentile, interpolated between closest ranks.

    A fixed percentile, not the highest one with ten samples beyond it: a
    run is bounded in time, so its job count follows the host's speed, and
    a percentile chosen by count would move with the host (between p50 and
    the maximum on braid-quotients), not with the program."""
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=10, method="inclusive")[-1]


class _ProductTable:
    def __init__(self, n):
        self.rows = [[(i * j + i + 1) % n for j in range(n)] for i in range(n)]

    def mul(self, i, j):
        return self.rows[i][j]


REFERENCE_TABLE = _ProductTable(61)


def reference_work():
    """A fixed piece of pure-Python work in the package's style (a dict DP
    keyed by tuples, stepping through a method that reads a product table)
    that shares no code with the package.  Its value never changes."""
    table = REFERENCE_TABLE
    dist = {(0, 0): 1}
    for _ in range(REFERENCE_STEPS):
        nxt = {}
        for (a, b), c in dist.items():
            for e in (1, 7):
                key = ((a * 3 + e) % 61, table.mul(b, (a + e) % 61))
                nxt[key] = nxt.get(key, 0) + c
        dist = nxt
    return len(dist)


def time_reference():
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class CostClock:
    """A job's seconds and its cost in units of the reference work, which is
    timed at every stage boundary: each stage's seconds are divided by the
    mean of the reference times on either side of it, so a change in the
    host's speed during a long job is caught at the next boundary."""

    def __init__(self):
        self.reference_times = [time_reference()]
        self.seconds = self.cost = self._t0 = 0.0

    def start(self):
        self.seconds = self.cost = 0.0
        self._t0 = time.perf_counter()

    def stage(self):
        elapsed = time.perf_counter() - self._t0
        reference = time_reference()
        self.seconds += elapsed
        self.cost += elapsed / ((self.reference_times[-1] + reference) / 2)
        self.reference_times.append(reference)
        self._t0 = time.perf_counter()


def measure_setup(inputs_path, workload):
    """Time from starting a fresh interpreter to its inputs being ready
    (import, group closure, parsing, conjugacy classes)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(inputs_path)],
        stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.communicate(timeout=PROBE_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return ready - start


class Runner:
    """Runs a workload's jobs, timing and checking each one."""

    def __init__(self, workload):
        self.workload = workload
        self.times: list[float] = []       # verified jobs only
        self.costs: list[float] = []       # the same, in units of the reference work
        self.reference_times: list[float] = []
        self.kinds: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.orbits = 0

    def _record(self, job, elapsed, out, error, timed=True, cost=None):
        self.attempted += 1
        problems = [f"{job.kind}: {error}"] if error is not None else job.check(out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            return
        if not timed:
            return
        self.times.append(elapsed)
        if cost is not None:
            self.costs.append(cost)
        self.kinds.append(job.kind)
        self.orbits += job.orbits(out)

    def _run_one(self, job, clock=None):
        """Runs a job, returning (seconds, output, traceback or None); with a
        ``clock``, the seconds and cost are left on the clock instead."""
        t0 = time.perf_counter()
        if clock is not None:
            clock.start()
        try:
            out, error = job.run(clock.stage if clock else lambda: None), None
        except Exception:  # a failing job is counted with its traceback; the run goes on
            out, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if clock is not None:
            clock.stage()
            elapsed = clock.seconds
        return elapsed, out, error

    def run_for(self, seconds, between=()):
        """The workload's warm-up jobs, checked but not timed, then whole
        cycles back to back until ``seconds`` have passed, with the
        reference work timed before the first job and at the end of each
        job's stages.  The calls in ``between`` run between jobs, spread
        evenly over the ``seconds``; any still due when the time is up run
        at the end."""
        pending = list(between)
        warm = 0
        while warm < self.workload.warmup_jobs:
            for job in self.workload.jobs():
                self._record(job, *self._run_one(job), timed=False)
                warm += 1
        clock = CostClock()
        self.reference_times = clock.reference_times
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            for job in self.workload.jobs():
                elapsed, out, error = self._run_one(job, clock)
                self._record(job, elapsed, out, error, cost=clock.cost)
                done = len(between) - len(pending)
                while pending and (time.perf_counter() - start
                                   >= seconds * (done + 0.5) / len(between)):
                    pending.pop(0)()
                    done += 1
        for call in pending:
            call()

    def run_jobs(self, count, tracer=None):
        """At least ``count`` jobs, in whole cycles.  With a tracer, each job runs
        inside a top-level span and its check runs with the tracer removed,
        so checking adds nothing to the per-layer figures."""
        total = 0.0
        done = 0
        while done < count:
            for job in self.workload.jobs():
                if tracer is None:
                    elapsed, out, error = self._run_one(job)
                else:
                    tracer.job = done
                    tracer.install()
                    try:
                        with tracer.span(f"job.{job.kind}"):
                            elapsed, out, error = self._run_one(job)
                    finally:
                        tracer.uninstall()
                self._record(job, elapsed, out, error)
                total += elapsed
                done += 1
        return total


def end_to_end(args, workload_cls, data, inputs_path):
    """Untraced jobs for ``--seconds``: the metrics of BENCHMARK.json's
    end_to_end list, plus printed-only job seconds, fail ratio and orbit rate.

    A shared host runs the same code up to 1.8 times faster or slower for
    seconds to minutes at a time, which moves job seconds between runs by
    more than any bound worth keeping.  The reference work slows down with
    the job, so the job's cost in units of it (``job_ref``) stays put and
    is what BENCHMARK.json bounds; job seconds are printed beside it."""
    setup_samples = []

    def probe():
        setup_samples.append(measure_setup(inputs_path, args.workload))

    runner = Runner(workload_cls(data))
    runner.run_for(args.seconds, [probe] * SETUP_PROBES)
    setup_s = statistics.median(setup_samples)
    times = runner.times or [float("nan")]
    costs = runner.costs or [float("nan")]
    metrics = {
        "job_ref.p50": {"value": statistics.median(costs), "unit": "ref"},
        "job_ref.p90": {"value": p90(costs), "unit": "ref"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    extra = {"job_s.p50": {"value": statistics.median(times), "unit": "s"},
             "job_s.p90": {"value": p90(times), "unit": "s"},
             "reference_s.p50": {"value": statistics.median(runner.reference_times),
                                 "unit": "s"},
             "fail_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio"}}
    notes = {
        "job_ref.p50": f"of {len(runner.times)} verified jobs",
        "job_ref.p90": f"of {len(runner.times)} verified jobs",
        "reference_s.p50": f"median of {len(runner.reference_times)} reference runs",
        "setup_s": f"median of {SETUP_PROBES} fresh interpreters spread over the run",
        "fail_ratio": f"{runner.failed}/{runner.attempted}",
    }
    if runner.orbits:
        job_time = sum(runner.times)
        extra["orbits_per_s"] = {"value": runner.orbits / job_time, "unit": "1/s"}
        notes["orbits_per_s"] = f"{runner.orbits} orbits over {job_time:.3f} s of job time"
    details = {"setup_samples": setup_samples, "job_times": runner.times,
               "job_costs": runner.costs, "reference_times": runner.reference_times,
               "job_kinds": runner.kinds}
    return [runner], metrics, extra, notes, details


def per_layer(args, workload_cls, data):
    """A fixed number of jobs untraced, then one traced set-up and the same
    jobs traced on fresh objects: BENCHMARK.json's per_layer metrics."""
    from tracer import Tracer

    plain = Runner(workload_cls(data))
    plain_s = plain.run_jobs(workload_cls.trace_jobs)

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            traced = Runner(workload_cls(data))
    finally:
        tracer.uninstall()
    traced_s = traced.run_jobs(workload_cls.trace_jobs, tracer)

    self_s, total_s = tracer.times()
    counts = tracer.call_counts()
    metrics = {f"{name}.s": {"value": self_s.get(name, 0.0), "unit": "s"}
               for name in PER_LAYER_TIMES}
    for name in PER_LAYER_TOTALS:
        metrics[f"{name}.total_s"] = {"value": total_s.get(name, 0.0), "unit": "s"}
    for metric, key in PER_LAYER_COUNTS.items():
        metrics[metric] = {"value": counts[key], "unit": "count"}
    orbits = counts["sft.enumerate_orbits.yielded"]
    mul = counts["permgroup.mul.calls"]
    candidates = counts["quotients.quotient_search.candidates"]
    homs = counts["quotients.quotient_search.homs"]
    metrics["sft.mul_per_orbit"] = {"value": mul / orbits if orbits else 0.0, "unit": "ratio"}
    metrics["quotients.kept_ratio"] = {"value": homs / candidates if candidates else 0.0,
                                       "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {"value": traced_s / plain_s, "unit": "ratio"}
    metrics["orbits_per_s"] = {"value": plain.orbits / plain_s, "unit": "1/s"}
    jobs = workload_cls.trace_jobs
    notes = {
        "sft.mul_per_orbit": f"{mul} mul calls over {orbits} enumerated orbits",
        "quotients.kept_ratio": f"{homs} homs kept of {candidates} candidate image tuples",
        "trace.overhead_ratio": f"{traced_s:.3f} s traced over {plain_s:.3f} s plain "
                                f"for the same {jobs} jobs",
        "orbits_per_s": f"{plain.orbits} orbits over {plain_s:.3f} s of untraced job time",
    }
    details = {"scope": f"one traced set-up plus {jobs} jobs", "calls": dict(counts),
               "self_s": self_s, "total_s": total_s, "spans": len(tracer.spans)}
    return [plain, traced], metrics, {}, notes, details, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cheblink = import_package()
    import inputs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    data = inputs.GENERATORS[args.workload](args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs_path = RESULTS / f"{args.workload}-seed{args.seed}-inputs.json"
    inputs_path.write_text(json.dumps(data, sort_keys=True))

    tracer = None
    if args.trace:
        runners, metrics, extra, notes, details, tracer = per_layer(args, workload_cls, data)
    else:
        runners, metrics, extra, notes, details = end_to_end(args, workload_cls, data,
                                                             inputs_path)
    attempted = sum(r.attempted for r in runners)
    failed = sum(r.failed for r in runners)
    problems = [p for r in runners for p in r.problems]

    provenance = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(), "machine": platform.machine(),
        "cheblink": cheblink.__version__, "commit": git_commit(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": inputs_path.name,
        "input_sizes": runners[0].workload.sizes(),
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = dict(result, extra_metrics=extra, provenance=provenance, notes=notes,
                  problems=problems[:50], details=details)
    (RESULTS / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write_spans(RESULTS / f"{stem}-spans.tsv")

    print(f"{args.workload} seed {args.seed}: {attempted} jobs, {failed} failed")
    for name, m in dict(metrics, **extra).items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{note}")
    for problem in problems[:10]:
        print(f"  FAIL {problem}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
