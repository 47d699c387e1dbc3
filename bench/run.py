"""linlay benchmark: times the CLI the way it is used, one fresh process per job.

Usage, from the root of a linlay checkout:

    python3 bench/run.py --workload exact-small|layouts-large|grid-witness|layouts-grid|all
                         [--seed N] [--seconds S] [--trace 0|1] [--record-digests]

A run writes its inputs from --seed (set-up, timed and repeated), then runs
the workload's job list in a closed loop with a single client, one job at a
time, until --seconds have passed and every job has run at least once.  Each
job's output is checked outside the timed region.  A metric is the sum of its
jobs' median times.  With --trace 1 one pass runs under tracer.py instead and
the per-layer metrics are printed.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import tracer
from checks import CheckFailed, check
from workloads import COMBINED, WORKLOADS, jobs_for, parts

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DIGESTS_PATH = os.path.join(BENCH_DIR, "digests.json")
DEFAULT_SEED = 0
SETUP_REPEATS = 5
JOB_CPU_LIMIT_S = 150  # a job that spins longer is killed and counts as failed

# the metrics the regression gate compares; every workload reports them
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
KIND_METRICS = (
    "solve_stack_s", "solve_queue_s", "gen_s", "verify_valid_s", "verify_invalid_s",
    "queue_min_s", "hexpath_few_steps_s", "hexpath_many_steps_s", "hexpath_trace_s",
    "witness_block_s", "witness_random_s",
)


@dataclass
class JobStats:
    seconds: list = field(default_factory=list)
    rss_mb: float = 0.0
    exit_codes: set = field(default_factory=set)


@dataclass
class Metric:
    value: float
    unit: str
    q1: float | None = None
    q3: float | None = None
    n: str = ""


@dataclass
class Outcome:
    metrics: dict
    jobs: dict
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))


def _digest_dir(path: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(path)):
        h.update(name.encode())
        with open(os.path.join(path, name), "rb") as handle:
            h.update(hashlib.sha256(handle.read()).digest())
    return h.hexdigest()


class Runner:
    """Set-up and jobs of one workload in one work directory."""

    def __init__(self, root, workload, seed, sizes, workdir, digests):
        self.workload, self.seed, self.sizes = workload, seed, sizes
        self.inputs = os.path.join(workdir, "inputs")
        self.outputs = os.path.join(workdir, "outputs")
        os.makedirs(self.inputs)
        os.makedirs(self.outputs)
        path = [os.path.join(root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.digests = digests  # job name -> expected stdout digest, or None
        self.seen_digests: dict = {}
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.inputs_digest = None

    def spawn(self, cmd, name):
        """Run one process to completion; return (seconds, exit code, peak RSS in MB)."""
        stdout_path = os.path.join(self.outputs, f"{name}.stdout")
        with open(stdout_path, "wb") as out, open(os.path.join(self.outputs, f"{name}.stderr"), "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.inputs, env=self.env, stdout=out, stderr=err,
                                    preexec_fn=_limit_cpu)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, usage.ru_maxrss / 1024.0

    def setup(self, spans_path=None) -> float:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "make_inputs.py"), self.workload,
               str(self.seed), self.sizes, self.inputs]
        if spans_path:
            cmd.append(spans_path)
        elapsed, code, _ = self.spawn(cmd, "setup")
        if code != 0:
            raise RuntimeError(f"set-up of {self.workload} exited {code}: {self._stderr('setup')}")
        digest = _digest_dir(self.inputs)
        if self.inputs_digest not in (None, digest):
            self.failures.append("set-up wrote different inputs for the same seed")
        self.inputs_digest = digest
        return elapsed

    def _stderr(self, name) -> str:
        with open(os.path.join(self.outputs, f"{name}.stderr"), "rb") as handle:
            lines = handle.read().decode("utf-8", "replace").strip().splitlines()
        return lines[-1] if lines else ""

    def run_job(self, job, traced=False):
        """Run one job and check its output; return (seconds, RSS MB, exit code,
        stdout bytes, span record or None)."""
        spans_path = os.path.join(self.outputs, f"{job.name}.spans.json")
        if traced:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans_path, job.entry, *job.argv]
        elif job.entry == "cli":
            cmd = [sys.executable, "-m", "linlay", *job.argv]
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "qmin.py"), *job.argv]
        elapsed, code, rss = self.spawn(cmd, job.name)
        self.attempted += 1
        with open(os.path.join(self.outputs, f"{job.name}.stdout"), "rb") as handle:
            stdout = handle.read()
        problem = self._verdict(job, stdout, code)
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{job.name}: {problem}")
        record = None
        if traced and os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as handle:
                record = json.load(handle)
            os.unlink(spans_path)
        return elapsed, rss, code, len(stdout), record

    def _verdict(self, job, stdout: bytes, code: int):
        digest = hashlib.sha256(stdout).hexdigest()
        self.seen_digests.setdefault(job.name, digest)
        key = (job.name, digest, code)
        if key not in self.verdicts:
            try:
                check(job, self.inputs, stdout, code)
                problem = None
                if self.digests is not None and self.digests.get(job.name) != digest:
                    problem = "stdout differs from the output recorded for the default seed"
            except CheckFailed as exc:
                problem = f"{exc} (exit {code}; stderr: {self._stderr(job.name)})"
            self.verdicts[key] = problem
        return self.verdicts[key]


def run_workload(root, workload, seed, seconds, trace, sizes="full", digests=None):
    """Set up, run and check one workload; return its Outcome and the
    stdout digest of each job's first run."""
    jobs = jobs_for(workload, sizes)
    workdir = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        runner = Runner(root, workload, seed, sizes, workdir, digests)
        metrics = {}
        if trace:
            setup_spans = os.path.join(runner.outputs, "setup.spans.json")
            runner.setup(setup_spans)
            with open(setup_spans, encoding="utf-8") as handle:
                records = [json.load(handle)]
            start = perf_counter()
            traced_wall = 0.0
            stdout_bytes = 0
            for job in jobs:
                elapsed, _, _, size, record = runner.run_job(job, traced=True)
                traced_wall += elapsed
                stdout_bytes += size
                if record is not None:
                    records.append(record)
        else:
            setups = [runner.setup() for _ in range(SETUP_REPEATS)]
            q1, median, q3 = quartiles(setups)
            metrics["setup_s"] = Metric(median, "s", q1, q3, str(len(setups)))
            start = perf_counter()

        stats = {job.name: JobStats() for job in jobs}
        i = 0
        while True:
            job = jobs[i % len(jobs)]
            done = stats[job.name].seconds
            if i >= len(jobs) and perf_counter() - start + done[-1] > seconds:
                break
            elapsed, rss, code, _, _ = runner.run_job(job)
            done.append(elapsed)
            stats[job.name].rss_mb = max(stats[job.name].rss_mb, rss)
            stats[job.name].exit_codes.add(code)
            i += 1

        counts = [len(s.seconds) for s in stats.values()]
        n = f"{min(counts)}-{max(counts)}" if min(counts) != max(counts) else str(min(counts))
        per_job = {name: quartiles(s.seconds) for name, s in stats.items()}
        for kind in KIND_METRICS + ("wall_s",):
            members = [job.name for job in jobs if kind == "wall_s" or job.kind == kind]
            if members:
                q1, median, q3 = (sum(per_job[m][k] for m in members) for k in range(3))
                metrics[kind] = Metric(median, "s", q1, q3, n)
        metrics["peak_rss_mb"] = Metric(max(s.rss_mb for s in stats.values()), "MB")
        metrics["failed_ratio"] = Metric(runner.failed / runner.attempted, "ratio")

        if trace:
            values = tracer.summarize(records)
            values["cli.stdout_bytes"] = stdout_bytes
            values["trace.overhead_ratio"] = traced_wall / metrics["wall_s"].value - 1.0
            units = tracer.layer_metric_units()
            metrics.update((name, Metric(values[name], units[name])) for name in units)
        outcome = Outcome(metrics, stats, runner.attempted, runner.failed, runner.failures)
        return outcome, runner.seen_digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


def environment(root) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit, dirty = None, None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, check=True).stdout.strip()
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=root, capture_output=True, text=True, check=True).stdout
            dirty = bool(status.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        "linlay_commit": commit,
        "dirty": dirty,
    }


def print_report(workload, outcome: Outcome) -> None:
    print(f"workload {workload}: {outcome.attempted} jobs attempted, {outcome.failed} failed")
    print(f"  {'metric':<50} {'value':>14} {'unit':<6} {'q1':>12} {'q3':>12}  n")
    for name, m in outcome.metrics.items():
        q = "" if m.q1 is None else f"{m.q1:>12.4f} {m.q3:>12.4f}  {m.n}"
        print(f"  {name:<50} {m.value:>14.6g} {m.unit:<6} {q}")
    print(f"  {'job':<50} {'median_s':>14} {'rss_mb':>6} {'q1':>12} {'q3':>12}  n  exit")
    for name, s in outcome.jobs.items():
        q1, median, q3 = quartiles(s.seconds)
        exits = ",".join(str(c) for c in sorted(s.exit_codes))
        print(f"  {name:<50} {median:>14.4f} {s.rss_mb:>6.1f} {q1:>12.4f} {q3:>12.4f}  {len(s.seconds)}  {exits}")
    for failure in outcome.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + tuple(COMBINED) + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="run one pass at the default seed and record each job's stdout digest")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "linlay", "__init__.py")):
        print("error: run from the root of a linlay checkout (src/linlay is missing)", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)

    if args.record_digests:
        recorded = {}
        for part in dict.fromkeys(p for name in names for p in parts(name)):
            outcome, seen = run_workload(root, part, DEFAULT_SEED, 0, False)
            if outcome.failures:
                print_report(part, outcome)
                return 1
            recorded[part] = seen
        if os.path.exists(DIGESTS_PATH):
            with open(DIGESTS_PATH, encoding="utf-8") as handle:
                recorded = {**json.load(handle), **recorded}
        with open(DIGESTS_PATH, "w", encoding="utf-8") as handle:
            json.dump(recorded, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return 0

    digests = None
    if args.seed == DEFAULT_SEED:
        with open(DIGESTS_PATH, encoding="utf-8") as handle:
            digests = json.load(handle)

    print(f"linlay benchmark: seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("environment: " + json.dumps(environment(root), sort_keys=True))
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    gated = tracer.layer_metric_units() if args.trace else END_TO_END
    for name in names:
        expected = None
        if digests is not None:
            expected = {job: d for part in parts(name) for job, d in digests.get(part, {}).items()}
        outcome, _ = run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                                  digests=expected)
        print_report(name, outcome)
        prefix = f"{name}." if len(names) > 1 else ""
        result["attempted"] += outcome.attempted
        result["failed"] += outcome.failed
        result["correct"] = result["correct"] and not outcome.failures
        for metric in gated:
            m = outcome.metrics[metric]
            result["metrics"][prefix + metric] = {"value": m.value, "unit": m.unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
