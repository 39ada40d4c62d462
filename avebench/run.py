"""Benchmark of the `ave` command on three paper workloads.

    python3 avebench/run.py --workload bench-lattice8 --seed 1 --seconds 30 --trace 0
    python3 avebench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/` directory. Each job is one `ave` command run through
`avesolve.cli.main(argv)` in this process, one at a time (closed loop, one
client). A run repeats the workload's job sequence for about `--seconds`
seconds, checks every job's output, and prints one metric per line, then, as
its last line, a JSON object with `correct`, `attempted`, `failed` and
`metrics`.

`--trace 0` reports the end-to-end metrics, measured untraced, with times in
reference-speed seconds: each raw time is scaled by the machine speed sampled
while it was measured (see speed.py), because the shared host this benchmark
runs on changes speed by up to 2x over seconds to minutes. The raw median is
printed beside them. `--trace 1`
alternates untraced and traced job sequences and reports the per-layer
metrics from the traced ones (see tracing.py); the tracing overhead is the
difference of the two medians. `--workload all` runs every workload in its
own child process, so that each reports its own peak RSS.

The workloads are fixed paper problems, so `--seed` selects nothing today;
it is accepted and echoed so that runs stay comparable when it does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import io
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import machine

machine.cap_blas_threads()  # before numpy is first imported

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# End-to-end metrics: name -> (unit, better).
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
SETUP_BUDGET_S = 2.0  # set-up repeats at least 3 times, then until this much time is spent
SETUP_MAX_REPS = 50


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import avesolve from this checkout's src/, never from an installed copy."""
    if not (SRC / "avesolve" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'avesolve'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import avesolve
    import avesolve.cli

    if Path(avesolve.__file__).resolve().parent != SRC / "avesolve":
        sys.exit(f"error: imported avesolve from {avesolve.__file__}, not from {SRC}")
    return avesolve


def tests_reference():
    """The tests' dense `trefethen_b` helper, or None when the tests no longer have it."""
    path = ROOT / "tests" / "conftest.py"
    if not path.is_file():
        return None
    spec = importlib.util.spec_from_file_location("_avebench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError:
        return None
    return getattr(module, "trefethen_b", None)


# --- running jobs ----------------------------------------------------------------------------


class Sequence:
    """One pass over a workload's jobs: times, and the jobs that failed.

    With a speed probe, each job's times exclude the probe's calibration loop and
    carry the machine speed sampled while the job ran (None if no sample fell in it).
    """

    def __init__(self, cli, workload, probe=None):
        self.jobs = []  # (wall s, CPU s, speed or None) per job
        self.attempted = 0
        self.errors = []
        for job in workload.jobs:
            out, err = io.StringIO(), io.StringIO()
            problem = None
            gc.collect()
            mark = probe.mark() if probe else (time.perf_counter(), time.process_time())
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(list(job.argv))  # looked up per call, so a traced main is used
            except SystemExit as exc:  # argparse rejected the command line
                rc = exc.code
            except Exception as exc:  # a crashing job is a failed job, not a crashed benchmark
                problem = f"raised {type(exc).__name__}: {exc}"
            if probe:
                self.jobs.append(probe.since(mark))
            else:
                self.jobs.append((time.perf_counter() - mark[0], time.process_time() - mark[1], None))
            self.attempted += 1
            if problem is None:
                problem = job.check(rc, out.getvalue())
            if problem is not None:
                stderr = err.getvalue().strip().replace("\n", " | ")[:300]
                self.errors.append(f"ave {' '.join(job.argv)}: {problem}" + (f" [stderr: {stderr}]" if stderr else ""))

    @property
    def wall(self):
        return sum(wall for wall, _, _ in self.jobs)

    def scaled(self, fallback):
        """(wall, CPU) in reference-speed seconds; `fallback` is the speed of a job without a sample."""
        wall = sum(w * (fallback if v is None else v) for w, _, v in self.jobs)
        cpu = sum(c * (fallback if v is None else v) for _, c, v in self.jobs)
        return wall, cpu


def repeat(seconds, step):
    """Call step() at least once, and again while the next call should end within `seconds`."""
    start, longest = time.perf_counter(), 0.0
    while True:
        t0 = time.perf_counter()
        step()
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            return


def measure_setup(workload, probe):
    """Set-up times in reference-speed seconds, one per repeat."""
    workload.setup()  # warm-up: the first call also pays one-time lazy imports and page faults
    reps = []
    start = time.perf_counter()
    while len(reps) < SETUP_MAX_REPS and (len(reps) < 3 or time.perf_counter() - start < SETUP_BUDGET_S):
        gc.collect()
        mark = probe.mark()
        workload.setup()
        reps.append(probe.since(mark))
    phase = probe.speed()  # for repeats too short to catch a sample
    return [wall * (phase if v is None else v) for wall, _, v in reps]


def tail(values):
    """(percentile, value) of the highest percentile with ten samples above it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


# --- the two kinds of run --------------------------------------------------------------------


def timed_run(cli, workload, seconds, lines):
    with speed.SpeedProbe() as probe:
        setup = measure_setup(workload, probe)
        seqs = []
        repeat(seconds, lambda: seqs.append(Sequence(cli, workload, probe)))
        run_speed = probe.speed()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scaled = [s.scaled(run_speed) for s in seqs]
    walls = [wall for wall, _ in scaled]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpu for _, cpu in scaled),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    t = tail(walls)
    t_text = f"p{t[0]:.1f} {t[1]:.6f} s" if t else "no percentile has ten samples above it"
    lines.append(f"sequences {len(seqs)} (wall_s median; {t_text})")
    raw = [s.wall for s in seqs]
    lines.append(
        f"machine speed {run_speed:.4f} of the reference over {len(probe.samples)} samples;"
        f" raw sequence wall s: median {statistics.median(raw):.6f}"
    )
    for label, values in (("sequence wall s", walls), ("set-up s", setup)):
        lines.append(f"{label}: n {len(values)}  min {min(values):.6f}  max {max(values):.6f}")
    return seqs, metrics


def traced_run(cli, workload, seconds, lines):
    plain, traced, per_seq, errors = [], [], [], []
    workload.setup()  # warm-up, as in measure_setup

    def step():
        plain.append(Sequence(cli, workload))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(Sequence(cli, workload))
        finally:
            errors.extend(tracer.uninstall())
        per_seq.append(tracer.per_layer(workload.mm_entries))
        if len(traced) > 1:
            return
        lines.append("boundaries of the first traced sequence: calls, total s, self s")
        for name, (calls, total, self_s) in sorted(tracer.boundaries().items(), key=lambda kv: -kv[1][2]):
            lines.append(f"  {name:<34} {calls:>9} {total:>11.6f} {self_s:>11.6f}")

    repeat(seconds, step)
    for seq in per_seq[1:]:
        for name in tracing.COUNTS:
            if seq[name] != per_seq[0][name]:
                errors.append(f"{name} differs between traced sequences: {per_seq[0][name]} vs {seq[name]}")
    metrics = {
        name: value if name in tracing.COUNTS else statistics.median(seq[name] for seq in per_seq)
        for name, value in per_seq[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(s.wall for s in traced) - statistics.median(
        s.wall for s in plain
    )
    if set(metrics) != set(tracing.PER_LAYER):
        raise RuntimeError("the traced metrics differ from tracing.PER_LAYER")
    lines.append(f"sequences {len(plain)} untraced + {len(traced)} traced")
    return plain + traced, metrics, errors


# --- entry points ----------------------------------------------------------------------------


def run_one(args):
    avesolve = import_package()
    lines = [
        f"workload {args.workload}  seed {args.seed} (fixed paper problem: the seed selects nothing)"
        f"  trace {args.trace}  seconds {args.seconds:g}",
        "machine " + json.dumps(machine.describe(ROOT), sort_keys=True),
    ]
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".avebench-") as workdir:
        workload = workloads.build(args.workload, workdir, avesolve)
        if args.trace:
            seqs, metrics, errors = traced_run(avesolve.cli, workload, args.seconds, lines)
            units = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
        else:
            (seqs, metrics), errors = timed_run(avesolve.cli, workload, args.seconds, lines), []
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
        reference = tests_reference()
        if reference is None:
            lines.append("notice: tests/conftest.py has no trefethen_b; generator compared to nothing")
        errors += workloads.check_trefethen(avesolve, reference, workdir)

    attempted = sum(s.attempted for s in seqs)
    failed = sum(len(s.errors) for s in seqs)
    errors += [e for s in seqs for e in s.errors]
    lines.append(f"failed_frac {failed}/{attempted} = {failed / attempted:.4f} (jobs)")
    lines += [f"{name:<28} {value:.6f} {units[name]}" for name, value in metrics.items()]
    lines += [f"ERROR {e}" for e in errors]
    print("\n".join(lines))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(args):
    """Every workload, each in a child process of its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, check=False)
        out = child.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if child.returncode != 0 or not out:
            sys.exit(f"error: workload {name} exited with {child.returncode}: {child.stderr.strip()[-500:]}")
        sub = json.loads(out[-1])
        result["correct"] &= sub["correct"]
        result["attempted"] += sub["attempted"]
        result["failed"] += sub["failed"]
        result["metrics"].update({f"{name}.{m}": v for m, v in sub["metrics"].items()})
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
