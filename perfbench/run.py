"""Benchmark of the `verify` CLI: wall time, set-up time and peak RSS per
workload, with per-layer counts and self times from a separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  Every `verify` run is a fresh process and runs alone, because the
module-global caches (`ugl._memo`, `centralizer._series_cache`) would
otherwise carry over from one run to the next.

--trace 0: set-up probes (spawn until the first suite starts), full runs
until S seconds have passed (at least one), set-up probes again.  Prints
the fastest full run's wall_s and the fastest set-up (probes and full
runs) as setup_s, both scaled to a reference host speed, and the median
peak_rss_mb.

The host's speed drifts by up to 2x over minutes, so both times are
multiplied by PROBE_REF_S / p, where p is the least, over the samples, of
the median CPU time of a fixed probe job timed beside the sample.  The
probe runs in its own process on the same core as `verify` (run.py pins
itself and its children to one core), every 0.1 s.  Raw times are kept in
perfbench/out/.

--trace 1: one untraced `python -m gltlab.cli` run and two traced runs of
the same argv.  Prints the per-layer metrics of the first traced run,
after checking that both traced runs repeat every count exactly and that
all three reports are byte-identical.

Every run is checked: exit code 0, every check passing, and for
default-all at seed 0 the report byte-identical to reports/golden_all.json.
The last stdout line is the JSON result; details go to stderr and to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass

from tracer import LAYER_METRICS, now

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
GOLDEN = os.path.join(ROOT, "reports", "golden_all.json")
CHILD = os.path.join(ROOT, "perfbench", "child.py")

# Each workload is one `verify` argv; run.py appends `--seed <seed>`.
WORKLOADS = {
    "default-all": ["all"],
    "centralizer-cap": ["centralizer", "--n", "2", "--m", "3", "--N", "8"],
    "invariants-cap": ["invariants", "--n", "2", "--m", "3", "--N", "8"],
}

SETUP_PROBES = 5  # before and again after the full runs
# Times are scaled to a host on which child.probe_job takes this much CPU
# time; it is about the median on the 2-core host the bounds were set on.
PROBE_REF_S = 0.0035
WINDOW_MIN_S = 2.0  # a sample is scaled by the probes of at least this span
DEADLINE_S = 170.0  # whole run, so that it exits within 180 s


@dataclass
class Run:
    """One finished child process; t0 is its spawn and t1 its exit."""

    rc: int
    wall: float
    cpu: float
    rss_mb: float
    t0: float
    t1: float
    stdout: bytes
    info: dict
    timed_out: bool


def spawn(cmd: list[str], timeout: float) -> Run:
    """Run cmd alone, killing it after `timeout` s; returns its wall time
    (spawn to exit), its own ru_maxrss and its output."""
    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryFile(dir=OUT) as out, \
            tempfile.NamedTemporaryFile(dir=OUT, suffix=".json") as info:
        lock = threading.Lock()
        state = {"done": False, "killed": False}
        t0 = now()
        proc = subprocess.Popen(
            [a.replace("{info}", info.name) for a in cmd], cwd=ROOT, env=env,
            stdin=subprocess.DEVNULL, stdout=out)

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            # Wait without reaping, so that the timer never signals a pid
            # that has been reused; then reap and read the rusage.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            t1 = now()
            with lock:
                state["done"] = True
        except BaseException:  # interrupted, e.g. by SIGTERM: stop the child
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        info.seek(0)
        raw = info.read()
    return Run(proc.returncode, t1 - t0, usage.ru_utime + usage.ru_stime,
               usage.ru_maxrss / 1024.0, t0, t1,
               stdout, json.loads(raw) if raw else {}, state["killed"])


def report_problems(run: Run, workload: str, seed: int) -> list[str]:
    """Why this run's report is not a verified one ([] if it is)."""
    if run.timed_out:
        return ["killed at the time limit"]
    if run.rc != 0:
        return [f"exit code {run.rc}"]
    try:
        report = json.loads(run.stdout)
    except ValueError:
        return ["report is not JSON"]
    problems = [f"check failed: {c.get('suite')}: {c.get('check')}"
                for c in report.get("checks", []) if c.get("pass") is not True]
    if not report.get("checks") or report.get("summary", {}).get("pass") \
            is not True:
        problems.append("summary does not pass")
    if workload == "default-all" and seed == 0:
        with open(GOLDEN, "rb") as fh:
            if run.stdout != fh.read():
                problems.append("report differs from reports/golden_all.json")
    return problems


def src_is_ours(run: Run) -> bool:
    path = run.info.get("gltlab", "")
    return path.startswith(SRC + os.sep)


class Prober:
    """child.py's probe loop in its own process; stop() ends it and reads
    its (start, cpu_s) timings."""

    def __init__(self):
        fd, self.path = tempfile.mkstemp(dir=OUT, suffix=".probe")
        os.close(fd)
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, "probe", self.path], cwd=ROOT,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        self.samples: list[tuple[float, float]] | None = None

    def stop(self) -> list[tuple[float, float]]:
        if self.samples is not None:
            return self.samples
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self.samples = []
        with open(self.path) as fh:
            for line in fh:
                try:
                    t, cpu = map(float, line.split())
                except ValueError:  # a line cut short by terminate()
                    continue
                self.samples.append((t, cpu))
        os.unlink(self.path)
        return self.samples


def probe_median(samples, t0: float, t1: float) -> float | None:
    """Median probe CPU time over [t0, t1], widened to WINDOW_MIN_S."""
    pad = max(0.0, (WINDOW_MIN_S - (t1 - t0)) / 2)
    cpu = [c for t, c in samples if t0 - pad <= t <= t1 + pad]
    return statistics.median(cpu) if cpu else None


def steal_ticks() -> int:
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def loadavg() -> list[str] | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def environment() -> dict:
    sha = None  # a source checkout without .git has none
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "git_sha": sha,
            "loadavg": loadavg()}


def median(values):
    return statistics.median(values) if values else 0.0


def untraced(workload, seed, seconds, deadline, log, prober):
    argv = WORKLOADS[workload] + ["--seed", str(seed)]
    runs, problems, setups, walls, rss = [], [], [], [], []

    def one(mode):
        run = spawn([sys.executable, CHILD, mode, "{info}", *argv],
                    deadline - now())
        runs.append(run)
        start = run.info.get("suite_start")
        bad = [] if start is not None and src_is_ours(run) \
            else ["suite never started from src/"]
        if start is not None:
            setups.append((start - run.t0, run.t0, start))
        if mode == "time":
            bad += report_problems(run, workload, seed)
            walls.append((run.wall, run.t0, run.t1))
            rss.append(run.rss_mb)
        elif run.rc != 0:
            bad.append(f"exit code {run.rc}")
        log({"mode": mode, "wall_s": run.wall, "cpu_s": run.cpu,
             "rss_mb": run.rss_mb,
             "setup_s": setups[-1][0] if start is not None else None,
             "problems": bad})
        problems.extend(bad)
        return not bad

    def probes():
        for _ in range(SETUP_PROBES):
            if not one("setup"):
                break

    # Host speed drifts over seconds, so probe set-up on both sides of the
    # full runs.
    probes()
    begin = now()
    while not problems and now() < deadline:
        one("time")
        if now() - begin >= seconds:
            break
    if not problems:
        probes()
    # Neighbours on a shared host slow the core down for seconds to
    # minutes (child CPU time tracks wall time: slower execution, not
    # waiting).  Contention only adds time, so the fastest sample is the
    # least disturbed one, and the fastest stretch of the speed probe beside
    # a sample gives the host's speed at its least disturbed in this run.
    samples = prober.stop()
    scaled, probes = {}, {}
    for name, spans in (("wall_s", walls), ("setup_s", setups)):
        probes[name] = [probe_median(samples, t0, t1) for _, t0, t1 in spans]
        if not spans or None in probes[name]:
            problems.append("no speed probe ran beside a sample")
            scaled[name] = 0.0
            continue
        scaled[name] = (min(v for v, _, _ in spans) * PROBE_REF_S
                        / min(probes[name]))
    log({"mode": "scaled", **scaled, "probe_s": probes, "problems": []})
    metrics = {"wall_s": (scaled["wall_s"], "s"),
               "setup_s": (scaled["setup_s"], "s"),
               "peak_rss_mb": (median(rss), "MB")}
    parent_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if rss and median(rss) <= parent_mb:
        problems.append("peak_rss_mb may be this process's RSS, which a "
                        "child's ru_maxrss starts from")
    return runs, problems, metrics


def traced(workload, seed, deadline, log):
    argv = WORKLOADS[workload] + ["--seed", str(seed)]
    plain = spawn([sys.executable, "-m", "gltlab.cli", *argv],
                  deadline - now())
    runs, problems = [plain], report_problems(plain, workload, seed)
    log({"mode": "plain", "wall_s": plain.wall, "problems": problems})
    traces = []
    for _ in range(2):
        if problems:
            break
        run = spawn([sys.executable, CHILD, "trace", "{info}", *argv],
                    deadline - now())
        runs.append(run)
        bad = report_problems(run, workload, seed)
        if not bad and not src_is_ours(run):
            bad.append("gltlab not imported from src/")
        if not bad and (run.stdout, run.rc) != (plain.stdout, plain.rc):
            bad.append("traced report differs from `python -m gltlab.cli`")
        tr = run.info.get("trace")
        if not bad and tr is None:
            bad.append("no trace written")
        if not bad and abs(tr["self_sum_s"] - tr["outermost_s"]) > 1e-6:
            bad.append("self times do not partition the traced time")
        log({"mode": "trace", "wall_s": run.wall, "problems": bad})
        problems.extend(bad)
        traces.append(run)
    if problems:
        return runs, problems, {n: (0, u) for n, u, _ in LAYER_METRICS}, None

    first = traces[0]
    raw = first.info["trace"]["metrics"]
    counts = {name for name, unit, _ in LAYER_METRICS if unit == "count"}
    second = traces[1].info["trace"]["metrics"]
    for name in sorted(counts):
        if raw.get(name, 0) != second.get(name, 0):
            problems.append(f"count {name} differs between two traced runs: "
                            f"{raw.get(name, 0)} vs {second.get(name, 0)}")
    exit_s = first.t1 - first.info["emit_end"]
    self_sum = sum(v for k, v in raw.items() if k.endswith(".s"))
    raw.update({
        "cli.exit_s": exit_s,
        "trace.wall_s": first.wall,
        "trace.untraced_wall_s": plain.wall,
        "trace.overhead_s": first.wall - plain.wall,
        "trace.remainder_s": first.wall - self_sum - exit_s,
    })
    if raw["trace.remainder_s"] < 0:
        problems.append("self times exceed the traced wall")
    metrics = {name: (raw.get(name, 0), unit)
               for name, unit, _ in LAYER_METRICS}
    return runs, problems, metrics, first.info["trace"]


def declared_metrics(trace: int) -> list[str] | None:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError):
        return None
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for need in (os.path.join(SRC, "gltlab", "cli.py"), GOLDEN):
        if not os.path.isfile(need):
            print(f"error: {os.path.relpath(need, ROOT)} not found; run from "
                  "the root of a gltlab source checkout", file=sys.stderr)
            return 2
    os.makedirs(OUT, exist_ok=True)
    deadline = now() + DEADLINE_S
    # One core for run.py, the speed probe and every child, so that the
    # probe shares the core it measures with `verify`; one child at a time.
    env = environment()
    env["cpu"] = cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "argv": WORKLOADS[args.workload] + ["--seed", str(args.seed)],
              "env": env, "runs": []}
    steal0 = steal_ticks()

    def log(entry):
        record["runs"].append(entry)
        print("perfbench:", json.dumps(entry), file=sys.stderr, flush=True)

    # Only --trace 0 scales its times, so only it runs the speed probe.
    prober = None if args.trace else Prober()
    try:
        if args.trace:
            runs, problems, metrics, trace = traced(
                args.workload, args.seed, deadline, log)
            record["trace"] = trace
        else:
            runs, problems, metrics = untraced(
                args.workload, args.seed, args.seconds, deadline, log,
                prober)
    finally:
        samples = prober.stop() if prober else []
    # The host's speed at start and end: median probe CPU time over the
    # first and the last WINDOW_MIN_S / 2 of the run.
    record["probe_s"] = [
        probe_median(samples, samples[0][0], samples[0][0]),
        probe_median(samples, samples[-1][0], samples[-1][0]),
    ] if samples else None
    record["steal_ticks"] = steal_ticks() - steal0
    record["env"]["loadavg_end"] = loadavg()

    declared = declared_metrics(args.trace)
    if not problems and declared is not None and declared != list(metrics):
        problems.append("metrics differ from those BENCHMARK.json declares")
    failed = sum(1 for entry in record["runs"] if entry["problems"])
    if problems and not failed:
        failed = 1
    result = {"correct": not problems, "attempted": max(len(runs), 1),
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record["parent_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["problems"] = problems
    record["result"] = result
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print("perfbench:", json.dumps({"env": record["env"],
                                    "probe_s": record["probe_s"],
                                    "steal_ticks": record["steal_ticks"],
                                    "problems": problems}), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
