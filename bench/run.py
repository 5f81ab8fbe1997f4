"""Benchmark of the astute CLI, end to end and per layer.

    python3 bench/run.py --workload orbits --seed 1 --seconds 25 --trace 0

Run from the root of a checkout: the benchmark imports astute from the
checkout's `src/` and fails (exit 2, no result) when it is missing.
Each workload is a closed loop of CLI calls, `astute.cli.main(argv)`,
made from one process and one thread.  A pass runs every operation of
the workload once; passes repeat for about `--seconds`.  Before each
operation the `lru_cache`s of `ideals.ideal_quotient_size` and
`spectral.cyclotomic` are cleared and garbage is collected, so every
operation starts cold as a CLI call does, and a SIGALRM timer stops it
at its time limit.  Every answer is checked (see workloads.py).

On a shared host (a small VM on a busy machine) the CPU's speed can
drift by up to 2x within seconds while nothing in this process changes;
process time then tracks wall time, so it is not scheduling.  So
untraced end-to-end times are given in reference seconds.  A fixed
pure-Python calibration kernel of a few milliseconds runs between
operations and, from a SIGPROF handler, every SAMPLE_PERIOD_S of CPU
time during one; the handler's time is taken out of the operation's.
Each operation's time is multiplied by KERNEL_REF_S over the median of
the kernel times from just before it to just after it, and each setup
time by KERNEL_REF_S over the mean of two kernel times on either side.
On a host where the kernel takes KERNEL_REF_S, a reference second is a
second.  The raw figures are printed beside the result.

With `--trace 0` the last stdout line carries the end-to-end metrics:
  wall_s        sum over operations of each one's median time across
                passes, in reference seconds; an operation stopped at its
                time limit counts the limit
  setup_s       median over fresh interpreters of start-up, `import
                astute.cli` and parser construction, in reference seconds
  peak_rss_mib  peak resident memory of a fresh process (peakrss.py) that
                runs once each operation that was never stopped at its
                limit; a stopped operation's memory depends on how far
                it got, so on the host's speed
  ok_frac       share of operations that did not fail (1 - failed_frac);
                a failure is a wrong answer, an exception, an unexpected
                exit code or a stop at the time limit
  decided_frac  share of operations that reached a verdict in budget;
                for `extremal` that means "optimal": true
With `--trace 1` untraced and traced passes alternate and the last line
carries the per-layer metrics (tracing.py); the spans of the first
traced pass are written to bench/out/.

The exit code is 0 when every answer that came back was correct and 1
otherwise; the result line is printed either way.
"""

from __future__ import annotations

import argparse
import contextlib
import faulthandler
import gc
import io
import json
import os
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import astute.cli; "
              "sys.exit(astute.cli.main([]))")
# Backstop behind the SIGALRM limit, for a call stuck in native code:
# dump the stack and exit the process this long after the limit.
HARD_STOP_GRACE_S = 20.0
# The calibration kernel's time on an unloaded 2-vCPU Xeon VM, and how
# often (in CPU seconds) it samples the host's speed during an operation.
KERNEL_REF_S = 0.0021
SAMPLE_PERIOD_S = 0.05


def kernel() -> float:
    """Seconds one run of the calibration kernel takes: integer
    arithmetic, dict stores, list building and a keyed sort, the kinds
    of work astute's pure-Python loops do."""
    t0 = perf_counter()
    table, acc = {}, 0
    for i in range(10000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    values = [x * 3 for x in range(5000)]
    values.sort(key=lambda v: -v)
    return perf_counter() - t0


class SpeedSampler:
    """Kernel times around and during one operation at a time."""

    def __init__(self):
        self.samples = [kernel()]
        self.spent = 0.0  # seconds the handler took during the operation
        signal.signal(signal.SIGPROF, self._on_prof)

    def _on_prof(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(kernel())
        self.spent += perf_counter() - t0

    def start(self):
        self.samples = self.samples[-1:]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def pause(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self) -> float:
        """Reference seconds per second over the operation just run."""
        self.samples.append(kernel())
        return KERNEL_REF_S / statistics.median(self.samples)


class OpTimeout(BaseException):
    """Raised by the SIGALRM handler; BaseException so no handler in the
    program under test can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


@dataclass
class OpResult:
    seconds: float
    ok: bool
    decided: bool
    wrong: bool  # a wrong answer, exception or unexpected exit: not a stop
    detail: str
    ref_seconds: float  # `seconds` in reference seconds, or the limit on a stop


def fail(message: str):
    """Stop without a result line."""
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_astute():
    """Import astute from this checkout's src/, or exit 2."""
    if not (SRC / "astute" / "cli.py").is_file():
        fail(f"no astute sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import astute.cli
    if Path(astute.cli.__file__).resolve().parent != (SRC / "astute").resolve():
        fail(f"astute imported from {astute.cli.__file__}, not {SRC}")
    return astute


class Runner:
    def __init__(self, astute, ops):
        self.cli = astute.cli
        # originals, held before any tracing wrapper replaces them
        self.quotient_cache = astute.ideals.ideal_quotient_size
        self.caches = (self.quotient_cache, astute.spectral.cyclotomic)
        self.ops = ops
        self.tracer = None  # set for traced passes
        self.sampler = None  # set for calibrated passes
        self.cache_hits = 0
        self.cache_lookups = 0

    def run_op(self, index: int) -> OpResult:
        op = self.ops[index]
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        rc, error, timed_out, t1 = None, "", False, None
        if self.tracer is not None:
            self.tracer.begin_op(index)
        faulthandler.dump_traceback_later(op.limit + HARD_STOP_GRACE_S, exit=True)
        sampler = self.sampler
        if sampler is not None:
            sampler.start()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                signal.setitimer(signal.ITIMER_REAL, op.limit)
                try:
                    rc = self.cli.main(op.argv)
                finally:
                    if sampler is not None:
                        sampler.pause()
                    t1 = perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            timed_out = True
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # an operation that raises fails; the run goes on
            error = f"raised {e!r}"
        seconds = (t1 if t1 is not None else perf_counter()) - t0
        faulthandler.cancel_dump_traceback_later()
        scale = 1.0
        if sampler is not None:
            sampler.pause()
            seconds -= sampler.spent
            scale = sampler.scale()
        if self.tracer is not None:
            self.tracer.end_op(completed=not timed_out)
        info = self.quotient_cache.cache_info()
        self.cache_hits += info.hits
        self.cache_lookups += info.hits + info.misses

        if timed_out:
            return OpResult(seconds, False, False, False,
                            f"stopped at the {op.limit:g} s limit", op.limit)
        ref_seconds = seconds * scale
        if error:
            return OpResult(seconds, False, False, True, error, ref_seconds)
        try:
            verdict = op.check(rc, out.getvalue())
        except (ValueError, KeyError, TypeError, IndexError) as e:
            return OpResult(seconds, False, False, True, f"unreadable output: {e!r}",
                            ref_seconds)
        detail = verdict.detail
        if not verdict.ok and err.getvalue():
            detail += f"; stderr: {err.getvalue().strip()[:200]}"
        return OpResult(seconds, verdict.ok, verdict.decided, not verdict.ok, detail,
                        ref_seconds)

    def run_pass(self, between=None) -> list[OpResult]:
        results = []
        for i in range(len(self.ops)):
            results.append(self.run_op(i))
            if between is not None:
                between()
        return results


def wall_s(passes: list[list[OpResult]], attr: str = "seconds") -> float:
    """Sum over operations of each one's median time across passes."""
    return sum(statistics.median(getattr(p[i], attr) for p in passes)
               for i in range(len(passes[0])))


class SetupSampler:
    """Fresh interpreters that import astute.cli and build its parser (the
    CLI's usage exit), started at even intervals through the first half
    of the run, which always holds passes, so the median spans the same
    host conditions as the operations."""

    def __init__(self, seconds: float):
        self.interval = seconds / 2 / SETUP_RUNS
        self.times: list[float] = []  # raw seconds
        self.ref_times: list[float] = []  # reference seconds
        self.last = perf_counter()

    def sample(self):
        before = kernel() + kernel()
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=60)
        seconds = perf_counter() - t0
        after = kernel() + kernel()
        self.last = perf_counter()
        self.times.append(seconds)
        self.ref_times.append(seconds * KERNEL_REF_S * 4 / (before + after))
        if proc.returncode != 2:
            fail(f"setup run exited {proc.returncode}: {proc.stderr.decode()[-500:]}")

    def maybe_sample(self):
        if len(self.times) < SETUP_RUNS and perf_counter() - self.last >= self.interval:
            self.sample()

    def fill(self):
        while len(self.times) < SETUP_RUNS:
            self.sample()


def peak_rss_mib(ops) -> float:
    """Peak resident memory of a fresh process that runs `ops` once each."""
    job = json.dumps({"src": str(SRC), "ops": [[op.argv, op.limit] for op in ops]})
    proc = subprocess.run([sys.executable, str(HERE / "peakrss.py")], input=job,
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=sum(op.limit for op in ops) + 60)
    if proc.returncode != 0:
        fail(f"peakrss.py exited {proc.returncode}: {proc.stderr[-500:]}")
    return float(proc.stdout.split()[-1])


def _keep_going(started: float, pass_times: list[float], seconds: float,
                after: int = 0) -> bool:
    """Start another pass only if it, and `after` more pass times, should
    end within the window."""
    mean = sum(pass_times) / len(pass_times)
    return perf_counter() - started + mean * (1 + after) <= seconds


def run_untraced(runner: Runner, seconds: float, setup: SetupSampler):
    """Passes while the peak-memory pass, about one more, still fits."""
    passes, pass_times = [], []
    started = perf_counter()
    while not passes or _keep_going(started, pass_times, seconds, after=1):
        t0 = perf_counter()
        passes.append(runner.run_pass(between=setup.maybe_sample))
        pass_times.append(perf_counter() - t0)
    return passes


def run_traced(runner: Runner, tracer, seconds: float, spans_path: Path):
    """Alternate untraced and traced passes; returns both pass lists and
    one tracer snapshot per traced pass."""
    plain, traced, snaps, pass_times = [], [], [], []
    started = perf_counter()
    while len(traced) < 1 or _keep_going(started, pass_times, seconds):
        t0 = perf_counter()
        runner.tracer = None
        plain.append(runner.run_pass())
        tracer.reset()
        runner.tracer = tracer
        hits, lookups = runner.cache_hits, runner.cache_lookups
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
        snap["cache_hits"] = runner.cache_hits - hits
        snap["cache_lookups"] = runner.cache_lookups - lookups
        snaps.append(snap)
        if len(snaps) == 1:
            OUT.mkdir(exist_ok=True)
            tracer.dump(str(spans_path), [op.name for op in runner.ops])
        pass_times.append(perf_counter() - t0)
    return plain, traced, snaps


def layer_metrics(plain, traced, snaps) -> dict:
    med = statistics.median
    metrics = {}
    missing = [fn for fn in list(tracing.SELF.values()) + list(tracing.INCLUSIVE.values())
               if fn not in snaps[0]["fn_self"]]
    if missing:
        print(f"bench: functions not found, reported as 0: {missing}", file=sys.stderr)
    for name, fn in tracing.SELF.items():
        metrics[name] = med(s["fn_self"].get(fn, 0.0) for s in snaps)
    for name, fn in tracing.INCLUSIVE.items():
        metrics[name] = med(s["fn_incl"].get(fn, 0.0) for s in snaps)
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = med(s["layer_self"][layer] for s in snaps)
    counters = snaps[0]["counters"]
    for s in snaps[1:]:
        if s["counters"] != counters:
            print(f"bench: counters differ between traced passes: {counters} "
                  f"vs {s['counters']}", file=sys.stderr)
    for name in tracing.COUNTERS:
        metrics[name] = counters.get(name, 0)
    lookups = snaps[0]["cache_lookups"]
    metrics["ideals.cache_hit_ratio"] = snaps[0]["cache_hits"] / lookups if lookups else 0.0
    search_s = metrics["extremal.search_s"]
    metrics["extremal.nodes_per_s"] = metrics["extremal.nodes"] / search_s if search_s else 0.0
    untraced_wall, traced_wall = wall_s(plain), wall_s(traced)
    metrics["trace.wall_untraced_s"] = untraced_wall
    metrics["trace.wall_traced_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.self_sum_s"] = med(sum(s["layer_self"].values()) for s in snaps)
    return metrics


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    if name.endswith("_mib"):
        return "MiB"
    return "count"


def summarize(passes: list[list[OpResult]], ops) -> tuple[int, int, int, bool]:
    attempted = failed = decided = 0
    correct = True
    for p in passes:
        for r in p:
            attempted += 1
            failed += not r.ok
            decided += r.decided
            correct &= not r.wrong
    for i, op in enumerate(ops):
        bad = {p[i].detail for p in passes if not p[i].ok}
        if bad:
            print(f"bench: {op.name}: {'; '.join(sorted(bad))}", file=sys.stderr)
    return attempted, failed, decided, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    astute = import_astute()
    os.environ.pop("ASTUTE_MAX_NODES", None)  # the CLI would read it
    signal.signal(signal.SIGALRM, _on_alarm)
    ops = workloads.build(args.workload, args.seed)
    runner = Runner(astute, ops)

    if args.trace:
        tracer = tracing.Tracer()
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        plain, traced, snaps = run_traced(runner, tracer, args.seconds, spans_path)
        passes = plain + traced
        attempted, failed, _, correct = summarize(passes, ops)
        metrics = layer_metrics(plain, traced, snaps)
        print(f"bench: {len(plain)} untraced and {len(traced)} traced passes of "
              f"{len(ops)} operations; spans in {spans_path.relative_to(ROOT)}")
    else:
        setup = SetupSampler(args.seconds)
        runner.sampler = SpeedSampler()
        passes = run_untraced(runner, args.seconds, setup)
        runner.sampler = None
        setup.fill()
        attempted, failed, decided, correct = summarize(passes, ops)
        metrics = {
            "wall_s": wall_s(passes, "ref_seconds"),
            "setup_s": statistics.median(setup.ref_times),
            "peak_rss_mib": peak_rss_mib([op for i, op in enumerate(ops)
                                          if all(p[i].ok or p[i].wrong for p in passes)]),
            "ok_frac": 1 - failed / attempted,
            "decided_frac": decided / attempted,
        }
        print(f"bench: {len(passes)} passes of {len(ops)} operations; raw wall_s "
              f"{wall_s(passes):.4f} s, raw setup_s {statistics.median(setup.times):.4f} s")

    for name, value in metrics.items():
        print(f"{name:36s} {value:.6g} {unit_of(name)}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
