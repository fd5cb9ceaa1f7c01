"""Benchmark of the ``spheremap`` command line on fixed workloads.

    python3 perfbench/run.py --workload flow-d2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One workload runs in one process, closed loop: the commands of a pass run
one after another through ``spheremap.cli_io.cli_main``, and passes repeat
until ``--seconds`` is used up.  Every command's outputs go through the
correctness gate in ``workloads.py``.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced and the metrics
are the per-layer ones of ``spans.py``.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import COMMAND_SPAN, PER_LAYER, Tracer, per_layer_metrics
from workloads import (
    WORKLOADS, check_command, commands, load_reference, output_digest, run_overrides,
)

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "run-d2.ini"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

SETUP_REPEATS = 9
MIN_PASSES = 3          # untraced; a traced run needs two of each kind
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_S = 180     # a run ends within this many seconds beyond --seconds

END_TO_END_UNITS = {
    "wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
}


class ProgramMissing(RuntimeError):
    """The checkout does not hold the program the benchmark drives."""


def load_cli():
    """``cli_main`` of the checkout's own ``src`` tree, never an installed copy."""
    for required in (SRC / "spheremap" / "__init__.py", CONFIG):
        if not required.is_file():
            raise ProgramMissing(f"{required.relative_to(ROOT)} not found")
    sys.path.insert(0, str(SRC))
    import spheremap.cli_io

    if Path(spheremap.cli_io.__file__).resolve().parent != SRC / "spheremap":
        raise ProgramMissing(f"spheremap imported from {spheremap.cli_io.__file__}")
    return spheremap.cli_io.cli_main


def environment() -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_before": os.getloadavg(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
    }


def thread_count() -> int | None:
    with contextlib.suppress(OSError), open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return None


def measure_setup(workload, seed: int) -> list:
    """Seconds from spawning a fresh interpreter until it has imported
    spheremap and parsed the workload's config.

    The child prints its own ``perf_counter`` (a system-wide monotonic clock
    on Linux), so interpreter teardown and the parent's wake-up are excluded.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); import spheremap; "
        "from spheremap.cli_io import parse_config; "
        "parse_config(sys.argv[2], sys.argv[3:]); print(repr(time.perf_counter()))"
    )
    argv = [sys.executable, "-c", code, str(SRC), str(CONFIG), *run_overrides(workload, seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.run(argv, check=True, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S)
        samples.append(float(child.stdout.split()[-1]) - start)
    return samples


def call_cli(cli_main, argv: list) -> tuple:
    """Exit code and captured standard output of one command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = -1
    if code != 0:
        sys.stderr.write(err.getvalue())
    return code, out.getvalue()


class Runner:
    """Runs passes of one workload and keeps their timings and failures."""

    def __init__(self, cli_main, workload, seed: int, work: Path) -> None:
        self.cli_main = cli_main
        self.workload = workload
        self.work = work
        self.cmds = commands(workload, str(CONFIG), str(work), seed)
        self.reference = load_reference(str(REFERENCE))[workload.name]
        self.digest = None
        self.attempted = 0
        self.failures: list = []

    def run_pass(self, tracer: Tracer | None = None) -> tuple:
        """Wall and CPU seconds of one pass's commands, gates excluded."""
        shutil.rmtree(self.work, ignore_errors=True)
        cli = self.cli_main if tracer is None else tracer.span(COMMAND_SPAN, self.cli_main)
        wall = cpu = 0.0
        for argv in self.cmds:
            w0, c0 = time.perf_counter(), time.process_time()
            code, stdout = call_cli(cli, argv)
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
            if tracer is not None:
                tracer.end_command()
            problems = check_command(self.workload, argv, code, stdout, str(self.work),
                                     self.reference)
            if argv[0] == "run" and code == 0:
                digest = output_digest(str(self.work))
                self.digest = self.digest or digest
                if digest != self.digest:
                    problems.append("run outputs differ from the first pass of this seed")
            self.attempted += 1
            if problems:
                self.failures.append(f"command {self.attempted} ({argv[0]}): "
                                     + "; ".join(problems))
        return wall, cpu


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    walls, cpus, traced_walls, passes = [], [], [], []
    tracer = Tracer() if trace else None
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        p0 = time.perf_counter()
        if traced:
            tracer.install()
            try:
                wall, cpu = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
        else:
            wall, cpu = runner.run_pass()
            walls.append(wall)
            cpus.append(cpu)
        passes.append(time.perf_counter() - p0)
        done = len(walls) >= MIN_PASSES if not trace else len(traced_walls) >= 2
        if done and time.perf_counter() - start + statistics.median(passes) > seconds:
            break
    return {"walls": walls, "cpus": cpus, "traced_walls": traced_walls, "tracer": tracer}


def run_workload(args) -> int:
    try:
        cli_main = load_cli()
    except ProgramMissing as exc:
        print(f"error: {exc}; run from the root of a spheremap checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{os.getpid()}"
    runner = Runner(cli_main, workload, args.seed, work)
    try:
        setup = [] if args.trace else measure_setup(workload, args.seed)
        result = measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env.update(loadavg_after=os.getloadavg(), threads=thread_count(),
               fft_modules=sorted(m for m in ("numpy.fft", "scipy.fft", "pyfftw", "mkl_fft")
                                  if m in sys.modules))

    walls, cpus = result["walls"], result["cpus"]
    failed = len(runner.failures)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    absent = []
    if args.trace:
        tracer = result["tracer"]
        values = per_layer_metrics(tracer, result["traced_walls"], walls)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        tracer.write_csv(str(OUT / f"{stem}-spans.csv.gz"))
        absent = tracer.absent
        if absent:
            print("absent from the program: " + ", ".join(absent))
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(walls)} untraced and {len(result['traced_walls'])} traced passes")
    print_metrics(metrics, failed, runner.attempted)
    for problem in runner.failures:
        print(f"  FAILED {problem}")
    print("environment " + json.dumps(env))
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s": setup, "wall_s": walls, "cpu_s": cpus,
              "traced_wall_s": result["traced_walls"], "failures": runner.failures,
              "absent": absent, "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def print_metrics(metrics: dict, failed: int, attempted: int) -> None:
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  error_rate = {failed / attempted:.6g} ratio "
          f"({failed} failed of {attempted} commands)")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=RUN_TIMEOUT_S + args.seconds)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{name}: benchmark exited with code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= not result["correct"]
        print(f"{name}:")
        print_metrics(result["metrics"], result["failed"], result["attempted"])
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
