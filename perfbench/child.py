"""One benchmark child: import vclab, build the seeded inputs, run commands.

Usage: child.py WORKLOAD SEED MODE CPU RESULT_PATH, with MODE one of

- ``setup``: stop once the first command could run;
- ``run``: run every command of the workload;
- ``trace``: run the single-process commands with the layer tracer installed.

The child pins itself to CPU, where the speed probe runs, except while a
command with worker processes runs.  It writes one JSON object to
RESULT_PATH: the monotonic time at which set-up ended, and per command its
exit code, start, wall time and report text (and, when traced, the
per-function counters).  Reports are captured in memory through
``vclab.cli.main``, exactly as the CLI would print them.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def cpu_time() -> float:
    """CPU seconds of this process and of its reaped children (the workers)."""
    own, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_command(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start, begun, cpu = time.monotonic(), time.perf_counter(), cpu_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed command, reported with its traceback
        code = -1
        err.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - begun, cpu_time() - cpu
    return {"exit_code": code, "start": start, "wall_s": wall, "cpu_s": cpu, "report": out.getvalue(), "stderr": err.getvalue()}


def main(argv) -> int:
    workload, seed, mode, cpu, result_path = argv[0], int(argv[1]), argv[2], int(argv[3]), argv[4]
    if mode not in ("setup", "run", "trace"):
        raise SystemExit(f"unknown mode {mode!r}")
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    import vclab.cli as cli
    from workloads import WORKLOADS

    commands = WORKLOADS[workload].build(seed)
    ready = time.monotonic()
    result = {"ready": ready, "commands": {}}
    tracer = None
    if mode == "setup":
        commands = []
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        commands = [c for c in commands if not c.parallel]
    with tracer or contextlib.nullcontext():
        for command in commands:
            if command.parallel:
                os.sched_setaffinity(0, allowed)
            result["commands"][command.label] = run_command(cli, command.argv)
            os.sched_setaffinity(0, {cpu})
    if tracer is not None:
        result["stats"] = {name: stat.as_dict() for name, stat in tracer.stats.items()}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
