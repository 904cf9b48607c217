"""vclab benchmark: time CLI workloads end to end, or trace them per layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload eq-search --seed 1 --seconds 10 --trace 0

Every command of a workload runs through ``vclab.cli.main`` in a fresh child
process (``perfbench/child.py``), one closed loop with a single caller; each
report is verified before it counts.  With ``--trace 0`` the run prints the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of one traced
child next to one untraced child.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Progress and failures go to standard error.

``--record-reference`` re-runs every workload at the default seed and writes
the report digests and machine notes to ``perfbench/reference.json``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
from tracer import MODULES, MUL  # noqa: E402
from workloads import JOBS2, WORKLOADS, Outcome  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES = 5  # set-up only children per run, besides each measured child
RUN_BUDGET_S = 170.0  # a run ends well inside three minutes
REFERENCE_PROBE_S = 200e-6  # probe kernel time of the reference CPU, see Speed


class BenchError(Exception):
    """The benchmark itself could not run: missing sources, crashed child."""


@dataclass
class ChildRun:
    spawned: float  # time.monotonic() just before the child was started
    ready: float  # when its set-up ended
    reaped: float  # when it had exited
    cpu_s: float
    peak_rss_mib: float
    outcomes: dict[str, Outcome]
    stderr: dict[str, str]
    stats: dict[str, dict] = field(default_factory=dict)


# -- children ---------------------------------------------------------------------


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for the child with ``wait4``, so its rusage is its own (workers included)."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.monotonic() > deadline:
                raise BenchError("child ran past the run's time budget")
            time.sleep(0.01)
    finally:
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def spawn(workload: str, seed: int, mode: str, cpu: int, tmp: Path, deadline: float) -> ChildRun:
    result_path = tmp / "child.json"
    env = {k: v for k, v in os.environ.items() if k != "VCL_JOBS"}
    env["PYTHONPATH"] = str(SRC)
    argv = [sys.executable, str(HERE / "child.py"), workload, str(seed), mode, str(cpu), str(result_path)]
    spawned = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, start_new_session=True)
    code, usage = _reap(proc, deadline)
    reaped = time.monotonic()
    if code != 0:
        raise BenchError(f"{mode} child for {workload} exited with code {code}")
    data = json.loads(result_path.read_text())
    result_path.unlink()
    commands = data["commands"]
    return ChildRun(
        spawned=spawned,
        ready=data["ready"],
        reaped=reaped,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024,
        outcomes={label: Outcome(c["exit_code"], c["report"], c["start"], c["wall_s"], c["cpu_s"]) for label, c in commands.items()},
        stderr={label: c["stderr"] for label, c in commands.items()},
        stats=data.get("stats", {}),
    )


@contextlib.contextmanager
def speed_probes(cpus: list[int], tmp: Path):
    """Run one ``probe.py`` on each of ``cpus`` for the duration of the block.

    Yields a dict that maps each CPU to its probe's samples once the block
    has ended.
    """
    paths = {cpu: tmp / f"probe{cpu}.json" for cpu in cpus}
    procs = [
        subprocess.Popen([sys.executable, str(HERE / "probe.py"), str(cpu), str(path)], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        for cpu, path in paths.items()
    ]
    samples: dict[int, list] = {}
    try:
        yield samples
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if any(proc.returncode != 0 for proc in procs):
        raise BenchError("a speed probe failed")
    samples.update({cpu: json.loads(path.read_text()) for cpu, path in paths.items()})


class Speed:
    """Scales timings to a CPU of fixed reference speed.

    On a shared host a guest CPU runs at a varying share of full speed, for
    seconds at a time, so the same work takes a varying time.  A probe times
    a fixed kernel on every CPU all through the run.  A span of ``t``
    seconds during which the kernel took ``k`` seconds on average counts as
    ``t * REFERENCE_PROBE_S / k``: the time the same work takes on a CPU
    that runs the kernel in ``REFERENCE_PROBE_S``, about this benchmark's
    2-core host at full speed.  A fixed reference, rather than the run's own
    fastest samples, also corrects runs that never saw the CPU at full
    speed.  Spans on the children's CPU use its probe; a command with worker
    processes uses the mean over every CPU.
    """

    def __init__(self, samples: dict[int, list], cpu: int) -> None:
        if not all(samples.values()):
            raise BenchError("a speed probe took no samples")
        self.cpu = cpu
        self.series = {c: ([t for t, _ in s], [d for _, d in s]) for c, s in samples.items()}

    def _factor(self, cpu: int, t0: float, t1: float) -> float:
        starts, durations = self.series[cpu]
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
        window = durations[lo:hi] or [durations[min(lo, len(durations) - 1)]]
        return REFERENCE_PROBE_S / statistics.fmean(window)

    def factor(self, t0: float, t1: float, every_cpu: bool = False) -> float:
        cpus = self.series if every_cpu else [self.cpu]
        return statistics.fmean(self._factor(c, t0, t1) for c in cpus)

    def outcome(self, out: Outcome, parallel: bool) -> Outcome:
        f = self.factor(out.start, out.start + out.wall_s, every_cpu=parallel)
        return dataclasses.replace(out, wall_s=out.wall_s * f, cpu_s=out.cpu_s * f)

    def median_sample(self) -> float:
        return statistics.median(self.series[self.cpu][1])


# -- verification -----------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["reports"] if REFERENCE.exists() else {}


def verify(workload: str, seed: int, run: ChildRun, reference: dict) -> int:
    """Count the commands of ``run`` whose report or exit code is wrong.

    Reports are checked for what must hold of any correct answer; a report
    whose exact command line has a recorded digest must also match it.
    """
    problems = WORKLOADS[workload].check(seed, run.outcomes)
    for command in WORKLOADS[workload].build(seed):
        ref = reference.get(f"{workload}/{command.label}")
        if ref and ref["argv_sha256"] == sha256(json.dumps(command.argv)) and not problems.get(command.label):
            if sha256(run.outcomes[command.label].report) != ref["report_sha256"]:
                problems[command.label] = "report digest differs from the recorded reference"
    failed = 0
    for label, problem in problems.items():
        if problem:
            failed += 1
            print(f"FAILED {workload}/{label}: {problem}\n{run.stderr.get(label, '')}", file=sys.stderr)
    return failed


# -- metrics ------------------------------------------------------------------------


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("_ratio"):
        return "ratio"
    for suffix in ("bytes", "bits"):
        if name.endswith(suffix):
            return suffix
    return "count"


END_TO_END = ("setup_s", "wall_s", "cpu_s", "peak_rss_mib")

# per-layer metric -> (span name, Stat field)
SPAN_METRICS = {
    "words.mul.calls": (MUL, "calls"),
    "words.mul.self_s": (MUL, "self_s"),
    "words.mul.syllables_in": (MUL, "size"),
    "words.pow.calls": ("words.Word.__pow__", "calls"),
    "words.pow.self_s": ("words.Word.__pow__", "self_s"),
    "words.inverse.calls": ("words.Word.inverse", "calls"),
    "words.inverse.self_s": ("words.Word.inverse", "self_s"),
    "words.cyclic_reduce.calls": ("words.Word.cyclic_reduce", "calls"),
    "words.cyclic_reduce.self_s": ("words.Word.cyclic_reduce", "self_s"),
    "words.enumerate.words": ("words.enumerate_reduced", "items"),
    "oracles.root.calls": ("oracles.root", "calls"),
    "oracles.root.self_s": ("oracles.root", "self_s"),
    "oracles.root.letters": ("oracles.root", "size"),
    "oracles.is_conjugate.calls": ("oracles.is_conjugate", "calls"),
    "oracles.is_conjugate.self_s": ("oracles.is_conjugate", "self_s"),
    "equations.candidates": ("equations.brute_force_solutions", "inner_words"),
    "equations.search.self_s": ("equations.brute_force_solutions", "self_s"),
    "equations.classify.calls": ("equations.classify_solution", "calls"),
    "equations.classify.self_s": ("equations.classify_solution", "self_s"),
    "testwords.verify.self_s": ("testwords.verify_testword", "self_s"),
    "testwords.letter_evaluate.calls": ("testwords._letter_evaluate", "calls"),
    "testwords.letter_evaluate.self_s": ("testwords._letter_evaluate", "self_s"),
    "hypgeom.cayley_ball.self_s": ("hypgeom.cayley_ball", "self_s"),
    "hypgeom.cayley_ball.mul_calls": ("hypgeom.cayley_ball", "inner_muls"),
    "hypgeom.delta.self_s": ("hypgeom.delta_thin_report", "self_s"),
    "hypgeom.dist.calls": ("hypgeom.FiniteMetricSpace.dist", "calls"),
    "hypgeom.geodesic.calls": ("hypgeom.free_tree_geodesic", "calls"),
    "hypgeom.geodesic.self_s": ("hypgeom.free_tree_geodesic", "self_s"),
    "hypgeom.divergence.self_s": ("hypgeom.divergence_experiment", "self_s"),
    "hypgeom.divergence.mul_calls": ("hypgeom.divergence_experiment", "inner_muls"),
    "quasimorphisms.defect.self_s": ("quasimorphisms.defect_estimate", "self_s"),
    "finitegroups.suite.self_s": ("finitegroups.dihedral_counterexample_suite", "self_s"),
    "finitegroups.evaluate_word.calls": ("finitegroups.FiniteGroup.evaluate_word", "calls"),
    "presentations.snf.self_s": ("presentations.smith_normal_form", "self_s"),
}


def _report(outcomes: dict[str, Outcome], label: str) -> dict:
    return json.loads(outcomes[label].report) if label in outcomes else {}


def layer_metrics(plain: dict[str, Outcome], traced: dict[str, Outcome], stats: dict[str, dict]) -> dict[str, float]:
    """Per-layer metrics of one traced child, next to an untraced child's outcomes.

    Every metric is present on every workload; one a workload never reaches is 0.
    """
    metrics: dict[str, float] = {}
    for name, (span, slot) in SPAN_METRICS.items():
        metrics[name] = stats.get(span, {}).get(slot, 0)
    for module in MODULES:
        metrics[f"{module}.self_s"] = sum(s["self_s"] for span, s in stats.items() if span.startswith(module + "."))

    solve, tw = _report(plain, "solve-eq"), _report(plain, "verify-testword")
    metrics["equations.solutions"] = len(solve.get("solutions", []))
    metrics["equations.solved_ratio"] = metrics["equations.solutions"] / metrics["equations.candidates"] if metrics["equations.candidates"] else 0
    jobs2 = plain.get("solve-eq-jobs2")
    metrics["equations.search_jobs2_s"] = jobs2.wall_s if jobs2 else 0
    metrics["testwords.assignments"] = tw.get("explored", 0)
    metrics["testwords.total"] = tw.get("total", 0)
    metrics["testwords.violations"] = len(tw.get("violations", []))
    metrics["testwords.violation_ratio"] = metrics["testwords.violations"] / metrics["testwords.assignments"] if metrics["testwords.assignments"] else 0
    metrics["hypgeom.cayley_ball.points"] = _report(plain, "cayley-delta").get("ball", {}).get("points", 0)
    snf = _report(plain, "snf")
    metrics["presentations.snf.max_entry_bits"] = max(
        (abs(x).bit_length() for key in ("u", "v", "d") for row in snf.get(key, []) for x in row), default=0
    )
    metrics["cli.report_bytes"] = sum(len(out.report.encode()) for out in traced.values())
    metrics["trace.overhead_s"] = sum(out.wall_s for out in traced.values()) - sum(plain[label].wall_s for label in traced)
    return metrics


def _with_units(metrics: dict[str, float]) -> dict[str, dict]:
    return {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()}


# -- runs -----------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, tmp: Path, deadline: float, reference: dict) -> dict:
    """End-to-end run: set-up samples, then fresh children while ``seconds`` last."""
    parallel = {c.label: c.parallel for c in WORKLOADS[workload].build(seed)}
    cpus = sorted(os.sched_getaffinity(0))
    runs: list[ChildRun] = []
    attempted = failed = 0
    with speed_probes(cpus, tmp) as samples:
        setups = [spawn(workload, seed, "setup", cpus[-1], tmp, deadline) for _ in range(SETUP_SAMPLES)]
        start = time.monotonic()
        while True:
            run = spawn(workload, seed, "run", cpus[-1], tmp, deadline)
            runs.append(run)
            attempted += len(run.outcomes)
            failed += verify(workload, seed, run, reference)
            now = time.monotonic()
            raw = sum(out.wall_s for label, out in run.outcomes.items() if not parallel[label])
            print(f"{workload} seed {seed}: child {len(runs)} raw wall_s {raw:.3f} raw cpu_s {run.cpu_s:.3f}", file=sys.stderr)
            # start another child only if it should end within ``seconds``
            last = now - run.spawned
            if now - start + last > seconds or now + last > deadline:
                break
    speed = Speed(samples, cpus[-1])

    def setup(run: ChildRun) -> float:
        return (run.ready - run.spawned) * speed.factor(run.spawned, run.ready)

    def wall_cpu(run: ChildRun) -> tuple[float, float]:
        scaled = {label: speed.outcome(out, parallel[label]) for label, out in run.outcomes.items()}
        wall = sum(out.wall_s for label, out in scaled.items() if not parallel[label])
        # CPU outside the commands (set-up, exit) is scaled like set-up
        rest = run.cpu_s - sum(out.cpu_s for out in run.outcomes.values())
        return wall, rest * speed.factor(run.spawned, run.ready) + sum(out.cpu_s for out in scaled.values())

    walls, cpu_times = zip(*map(wall_cpu, runs))
    metrics = {
        "setup_s": statistics.median(map(setup, setups + runs)),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpu_times),
        "peak_rss_mib": statistics.median(r.peak_rss_mib for r in runs),
    }
    print(f"{workload} seed {seed}: median probe sample {speed.median_sample() * 1e6:.1f} us", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": _with_units(metrics)}


def trace(workload: str, seed: int, tmp: Path, deadline: float, reference: dict) -> dict:
    """Per-layer run: one untraced child, then one traced child at ``--jobs 1``.

    Times are speed-scaled like the end-to-end ones; the traced child's
    span times by the mean factor over its commands.
    """
    parallel = {c.label: c.parallel for c in WORKLOADS[workload].build(seed)}
    cpus = sorted(os.sched_getaffinity(0))
    with speed_probes(cpus, tmp) as samples:
        plain = spawn(workload, seed, "run", cpus[-1], tmp, deadline)
        traced = spawn(workload, seed, "trace", cpus[-1], tmp, deadline)
    speed = Speed(samples, cpus[-1])
    failed = verify(workload, seed, plain, reference)
    for label, out in traced.outcomes.items():
        if (out.exit_code, out.report) != (plain.outcomes[label].exit_code, plain.outcomes[label].report):
            failed += 1
            print(f"FAILED {workload}/{label}: traced report differs from the untraced one", file=sys.stderr)
    begin = min(out.start for out in traced.outcomes.values())
    end = max(out.start + out.wall_s for out in traced.outcomes.values())
    f = speed.factor(begin, end)
    stats = {name: {**stat, "self_s": stat["self_s"] * f, "total_s": stat["total_s"] * f} for name, stat in traced.stats.items()}
    metrics = layer_metrics(
        {label: speed.outcome(out, parallel[label]) for label, out in plain.outcomes.items()},
        {label: speed.outcome(out, False) for label, out in traced.outcomes.items()},
        stats,
    )
    attempted = len(plain.outcomes) + len(traced.outcomes)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": _with_units(metrics)}


def record_reference(tmp: Path) -> None:
    """Write the default seed's report digests and machine notes."""
    reports = {}
    for workload in WORKLOADS:
        run = spawn(workload, DEFAULT_SEED, "run", max(os.sched_getaffinity(0)), tmp, time.monotonic() + RUN_BUDGET_S)
        if verify(workload, DEFAULT_SEED, run, {}):
            raise BenchError(f"{workload} fails verification; nothing recorded")
        for command in WORKLOADS[workload].build(DEFAULT_SEED):
            reports[f"{workload}/{command.label}"] = {
                "argv_sha256": sha256(json.dumps(command.argv)),
                "report_sha256": sha256(run.outcomes[command.label].report),
            }
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    machine = {"nproc": os.cpu_count(), "jobs2": JOBS2, "python": platform.python_version(), "commit": commit or "unknown"}
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "machine": machine, "reports": reports}, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not (SRC / "vclab" / "cli.py").is_file():
            raise BenchError(f"no vclab sources under {SRC}")
        sys.path.insert(0, str(SRC))
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            if args.record_reference:
                record_reference(Path(tmp))
                return 0
            reference = load_reference()
            if args.trace:
                result = trace(args.workload, args.seed, Path(tmp), deadline, reference)
            else:
                result = measure(args.workload, args.seed, args.seconds, Path(tmp), deadline, reference)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
