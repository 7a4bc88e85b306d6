"""creditbounds benchmark: one workload per run, end-to-end or traced.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload homog_det --seed 1 --seconds 18 --trace 0

An operation is one in-process `creditbounds.cli.main([...])` call
(`bounds` or `oracle`, see workloads.py).  The run measures set-up in
fresh processes, warms up with one small operation, then repeats the
operation for `--seconds` seconds, checking every operation's output files
with the correctness gate (gate.py).  With `--trace 0` it reports the
end-to-end metrics; with `--trace 1` it alternates untraced and traced
operations and reports the per-layer metrics (spans.py).  Human-readable
lines come first; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

The program is imported from `src/` of the checkout, never from an
installed copy.  The run uses one process, and at most one busy thread
per CPU: the simulation worker pool is the only parallelism, so BLAS
libraries are limited to one thread unless the caller set them.

`--smoke` shrinks every operation to 16,384 samples and one set-up
repetition; selftest.py uses it.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import contextlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

import gate
import spans
from workloads import WORKLOADS, generate_oracle_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_REPS = 5
SMOKE_SAMPLES = 1 << 14
MICRO_POINTS = 1 << 14  # one simulation chunk
MICRO_REPS = 5

END_TO_END_UNITS = {"run_s": "s", "run_s_tail": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "portfolio.load_s": "s",
    "profiles.build_s": "s",
    "profiles.envelope_repairs": "count",
    "profiles.cpd_ns": "ns",
    "copulas.conditional_ns": "ns",
    "simulate.mc_s": "s",
    "simulate.mc_runs": "count",
    "simulate.draws_per_s": "1/s",
    "simulate.groups": "count",
    "simulate.worker_speedup": "ratio",
    "simulate.exact_s": "s",
    "simulate.exact_support_ratio": "ratio",
    "simulate.sup_distance_s": "s",
    "risk.avar_s": "s",
    "risk.avar_calls": "count",
    "risk.sorts": "count",
    "risk.sort_s": "s",
    "risk.se_s": "s",
    "risk.se_rel_max": "ratio",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# Boundaries each kind of operation must cross; a traced run that records
# no span at one of them fails instead of reporting zeros.
REQUIRED_SPANS = {
    "bounds": ("cli.main", "portfolio.load", "profiles.build", "risk.report",
               "simulate.mc", "risk.avar", "risk.se", "risk.sort"),
    "oracle": ("cli.main", "portfolio.load", "profiles.build", "simulate.mc",
               "simulate.exact", "simulate.sup_distance"),
}
REPAIR_WARNING = "is not convex"
REPORT_FILE = {"bounds": "report.csv", "oracle": "oracle_report.csv"}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment() -> dict:
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
    }


_SETUP_CHILD = (
    "import sys\n"
    "import creditbounds\n"
    "from creditbounds import load_scenario\n"
    "if not load_scenario(sys.argv[1]).borrowers:\n"
    "    sys.exit(3)\n"
)


def measure_setup(scenario: Path, reps: int) -> list[float]:
    """Wall times of fresh processes that each import the package and load
    and resolve the scenario."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)}
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(scenario)],
                              cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed ({proc.returncode}): {proc.stderr.strip()}")
    return times


class Operation:
    """Runs one CLI operation and applies the correctness gate to its output."""

    def __init__(self, cli, workload, scenario: Path, seed: int, samples: int, out_dir: Path):
        self.cli = cli
        self.workload = workload
        self.scenario = scenario
        self.seed = seed
        self.samples = samples
        self.out_dir = out_dir
        self.report = out_dir / REPORT_FILE[workload.command]
        self.attempted = 0
        self.failed = 0

    def __call__(self, workers: int, samples: int | None = None, tracer=None):
        """Returns (seconds, convex-repair warning count)."""
        samples = samples or self.samples
        argv = [self.workload.command, "--scenario", str(self.scenario), "--out", str(self.out_dir),
                "--samples", str(samples), "--seed", str(self.seed), "--workers", str(workers)]
        self.report.unlink(missing_ok=True)  # never gate a previous operation's output
        stderr = io.StringIO()
        error = ""
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                rc = tracer.call("cli.main", self.cli.main, argv) if tracer else self.cli.main(argv)
            except Exception:  # an operation that raises is a failed operation
                rc, error = None, traceback.format_exc()
            seconds = time.perf_counter() - start
        failures = self.check(rc, samples)
        self.attempted += 1
        if failures:
            self.failed += 1
            print(f"operation {self.attempted} failed: {'; '.join(failures[:6])}\n"
                  f"{stderr.getvalue()}{error}", file=sys.stderr)
        repairs = sum(REPAIR_WARNING in str(w.message) for w in caught)
        return seconds, repairs

    def check(self, rc, samples: int) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        if not self.report.is_file():
            return [f"no {self.report.name} written"]
        if self.workload.command == "bounds":
            return gate.check_bounds(self.report, self.workload.reference, samples)
        models = json.loads(self.scenario.read_text(encoding="utf-8"))["models"]
        return gate.check_oracle(self.report, models, samples)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are
    fewer than eleven samples."""
    ordered = sorted(times)
    k = len(ordered) - 11 if len(ordered) >= 11 else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered) - 1 - k


def run_end_to_end(op: Operation, workers: int, seconds: float) -> tuple[dict, str]:
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        times.append(op(workers)[0])
    value, pct, beyond = tail(times)
    metrics = {
        "run_s": statistics.median(times),
        "run_s_tail": value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = (f"run_s is the median of {len(times)} operations; run_s_tail is p{pct:.0f} "
            f"with {beyond} operations beyond it; operation times "
            f"{', '.join(f'{t:.3f}' for t in times)} s")
    return metrics, note


def _self_total(tracer, name, op=None) -> float:
    return sum(s.self_s for s in tracer.of(name, op))


def _group_sizes(info) -> list[int]:
    """Borrowers per pooling key, by the rule the simulator pools with."""
    profiles = info.get("profiles")
    keys = Counter(
        (profiles[i].group_key() if profiles is not None else None, b.lgd, b.exposure_weight, b.pd)
        for i, b in enumerate(info["portfolio"])
    )
    return list(keys.values())


def _micro_ns(calls) -> float:
    """Mean over the callables of the median ns per point of one evaluation."""
    per_call = []
    for fn in calls:
        reps = []
        for _ in range(MICRO_REPS):
            start = time.perf_counter_ns()
            fn()
            reps.append(time.perf_counter_ns() - start)
        per_call.append(statistics.median(reps) / MICRO_POINTS)
    return statistics.fmean(per_call)


def _copulas_of(profile):
    if hasattr(profile, "copula"):
        yield profile.copula, profile.pd
    for member in getattr(profile, "members", ()):
        yield from _copulas_of(member)


def microbenchmarks(tracer) -> dict:
    """ns per point of conditional_pd and Copula.conditional over one chunk,
    for each distinct profile (and the copulas behind it) the workload built."""
    t = (np.arange(MICRO_POINTS) + 0.5) / MICRO_POINTS
    profiles = {}
    for span in tracer.of("profiles.build"):
        for side in span.info["profiles"]:
            for p in side:
                profiles.setdefault(p.group_key(), p)
    copulas = {}
    for p in profiles.values():
        for cop, pd in _copulas_of(p):
            copulas.setdefault((repr(cop), pd), (cop.survival(), 1.0 - pd))
    if not profiles or not copulas:
        raise spans.MissingBoundary("no profiles or copulas reached the microbenchmarks")
    return {
        "profiles.cpd_ns": _micro_ns([lambda p=p: p.conditional_pd(t) for p in profiles.values()]),
        "copulas.conditional_ns": _micro_ns(
            [lambda c=c, u=u: c.conditional(u, t) for c, u in copulas.values()]),
    }


def layer_metrics(tracer, ops: list[int], repairs: list[int], se_rel: list[float]) -> dict:
    """Per-operation means of the span totals over the traced operations."""
    def per_op(fn):
        return statistics.fmean(fn(op) for op in ops)

    mc = tracer.of("simulate.mc")
    exact = tracer.of("simulate.exact")
    mc_s = per_op(lambda op: _self_total(tracer, "simulate.mc", op))
    draws = per_op(lambda op: sum(s.info["samples"] for s in tracer.of("simulate.mc", op)))
    ratios = [s.info["support"] / math.prod(n + 1 for n in _group_sizes(s.info)) for s in exact]
    return {
        "portfolio.load_s": per_op(lambda op: sum(s.duration for s in tracer.of("portfolio.load", op))),
        "profiles.build_s": per_op(lambda op: _self_total(tracer, "profiles.build", op)),
        "profiles.envelope_repairs": statistics.fmean(repairs),
        "simulate.mc_s": mc_s,
        "simulate.mc_runs": per_op(lambda op: len(tracer.of("simulate.mc", op))),
        "simulate.draws_per_s": draws / mc_s,
        "simulate.groups": statistics.fmean(len(_group_sizes(s.info)) for s in mc),
        "simulate.exact_s": per_op(lambda op: _self_total(tracer, "simulate.exact", op)),
        "simulate.exact_support_ratio": statistics.fmean(ratios) if ratios else 0.0,
        "simulate.sup_distance_s": per_op(lambda op: _self_total(tracer, "simulate.sup_distance", op)),
        "risk.avar_s": per_op(lambda op: _self_total(tracer, "risk.avar", op)),
        "risk.avar_calls": per_op(lambda op: len(tracer.of("risk.avar", op))),
        "risk.sorts": per_op(lambda op: len(tracer.of("risk.sort", op))),
        "risk.sort_s": per_op(lambda op: _self_total(tracer, "risk.sort", op)),
        "risk.se_s": per_op(lambda op: _self_total(tracer, "risk.se", op)),
        "risk.se_rel_max": max(se_rel) if se_rel else 0.0,
        "cli.self_s": per_op(lambda op: _self_total(tracer, "cli.main", op)),
    }


def se_rel_max(report_csv: Path) -> float:
    worst = 0.0
    for r in gate.read_report(report_csv).values():
        for side in ("lower", "upper", "indep", "comon"):
            worst = max(worst, r[f"se_{side}"] / r[f"avar_{side}"])
    return worst


def run_traced(op: Operation, modules, workers: int, nproc: int, seconds: float,
               spans_file: Path) -> tuple[dict, str]:
    cli, risk, simulate = modules
    tracer = spans.Tracer(cli, risk, simulate)
    plain, traced, repairs, se_rel, ops = [], [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(op(workers)[0])
        tracer.op += 1
        with tracer.installed():
            seconds_traced, n_repairs = op(workers, tracer=tracer)
        traced.append(seconds_traced)
        repairs.append(n_repairs)
        ops.append(tracer.op)
        if op.workload.command == "bounds":
            se_rel.append(se_rel_max(op.report))
    tracer.require(REQUIRED_SPANS[op.workload.command])
    metrics = layer_metrics(tracer, ops, repairs, se_rel)

    # the same operation at the other worker count, for the scaling ratio
    other = 1 if workers > 1 else nproc
    if other != workers:
        scaling = spans.Tracer(cli, risk, simulate)
        with scaling.installed():
            op(other, tracer=scaling)
        scaling.require(("simulate.mc",))
        other_mc = _self_total(scaling, "simulate.mc")
        one, many = (other_mc, metrics["simulate.mc_s"]) if other == 1 else (metrics["simulate.mc_s"], other_mc)
        metrics["simulate.worker_speedup"] = one / many
        speedup_note = f"worker_speedup = mc_s at 1 worker / mc_s at {nproc} workers"
    else:
        metrics["simulate.worker_speedup"] = 1.0
        speedup_note = "worker_speedup is 1: one CPU"
    metrics.update(microbenchmarks(tracer))
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    write_spans(tracer, spans_file)
    note = (f"{len(traced)} traced and {len(plain)} untraced operations; per-layer values are "
            f"per-operation means; {speedup_note}; span log in {spans_file.relative_to(ROOT)}")
    return {name: metrics[name] for name in PER_LAYER_UNITS}, note


def write_spans(tracer, path: Path) -> None:
    index = {id(s): i for i, s in enumerate(tracer.spans)}
    rows = [
        {"name": s.name, "op": s.op, "start": s.start, "end": s.end, "self_s": s.self_s,
         "parent": index.get(id(s.parent))}
        for s in tracer.spans
    ]
    path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


def import_program():
    """Import creditbounds from the checkout's src/ and refuse any other copy."""
    if not (SRC / "creditbounds" / "__init__.py").is_file():
        raise BenchError(f"no creditbounds source tree under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import creditbounds
    from creditbounds import cli, risk, simulate

    if Path(creditbounds.__file__).resolve().parent != (SRC / "creditbounds").resolve():
        raise BenchError(f"imported creditbounds from {creditbounds.__file__}, not from {SRC}")
    return cli, risk, simulate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny operations, for selftest.py")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    try:
        modules = import_program()
        nproc = cpu_count()
        workers = workload.workers or nproc
        # one directory per workload, overwritten by each run, keeps disk use bounded
        work_dir = WORK / workload.name
        work_dir.mkdir(parents=True, exist_ok=True)
        scenario = ROOT / workload.scenario if workload.scenario else \
            generate_oracle_inputs(args.seed, work_dir / "inputs")
        samples = SMOKE_SAMPLES if args.smoke else workload.samples

        print(f"workload {workload.name}: {workload.why}")
        print(f"  stresses {workload.stresses}; bypasses {workload.bypasses}")
        print(f"  creditbounds {workload.command} --scenario {scenario.relative_to(ROOT)} "
              f"--samples {samples} --seed {args.seed} --workers {workers}")
        for key, value in environment().items():
            print(f"env.{key} = {value}")

        op = Operation(modules[0], workload, scenario, args.seed, samples, work_dir / "out")
        op(workers, samples=SMOKE_SAMPLES)  # warm-up: checked, not timed
        if args.trace:
            metrics, note = run_traced(op, modules, workers, nproc, args.seconds,
                                       work_dir / "spans.json")
            units = PER_LAYER_UNITS
        else:
            setup = measure_setup(scenario, 1 if args.smoke else SETUP_REPS)
            metrics, note = run_end_to_end(op, workers, args.seconds)
            metrics["setup_s"] = statistics.median(setup)
            note += f"; setup_s is the median of {', '.join(f'{t:.3f}' for t in setup)} s"
            units = END_TO_END_UNITS
    except (BenchError, spans.MissingBoundary, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"fail_ratio = {op.failed / op.attempted:g} ({op.failed} of {op.attempted} operations, "
          f"warm-up included)")
    print(note)
    result = {
        "correct": op.failed == 0,
        "attempted": op.attempted,
        "failed": op.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if op.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
