"""Benchmark of tvdist: four seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is ``guarantee``, ``wide-binary``, ``mixed-sparse``, ``cli-wide`` or
``all``. The package is imported from the ``src/`` directory next to this
one, never from an installed copy, and the CLI is started as
``python -m tvdist.cli`` with that directory on ``PYTHONPATH``.

Each workload is a closed loop with one caller: the next call starts when
the previous one has returned, for ``--seconds`` seconds. Every call's output
is checked against an independent reference; a failed call or check counts
toward ``failed``. With ``--trace 0`` the run measures the end-to-end
metrics; with ``--trace 1`` it times each public call into the package's
modules as a span and reports the per-layer metrics, and writes the spans
to ``.perfbench-out/``. Before the last line, stdout lists the environment,
every metric with its unit and each failed operation; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit code 2 means the package could not be found.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Iterator

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SCHEMA = SRC / "tvdist" / "schemas" / "run-report.schema.json"

sys.path[:0] = [str(SRC), str(HERE)]
import workloads as W  # noqa: E402
from spans import Tracer  # noqa: E402

try:
    import tvdist
    import tvdist.cli
except ImportError:  # main() reports the missing package and exits
    tvdist = None

WORKLOADS = ("guarantee", "wide-binary", "mixed-sparse", "cli-wide")
CHILD_TIMEOUT_S = 150
#: Most draws per sample_pi_batch call (one RNG block) and per
#: naive_estimate_tv call in the traced run.
TRACE_SAMPLE_DRAWS = 4096
TRACE_NAIVE_DRAWS = 8192
#: Allowed |oracle - closed form| on a binary prefix; both are exact rationals.
PREFIX_TOL = 1e-12
#: Fresh processes timing ``import tvdist.cli`` in each traced pass.
IMPORT_PROBES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import tvdist.cli; "
    "print(time.perf_counter() - t)"
)


class Tally:
    """Operations attempted and failed; a failure is an exception or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @contextmanager
    def operation(self, what: str) -> Iterator[list[str]]:
        """Count one operation; the body appends the problems its checks find."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception as exc:  # a failing call is counted, never fatal
            traceback.print_exc(file=sys.stderr)
            problems.append(f"{type(exc).__name__}: {exc}")
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")


@dataclass
class Workload:
    name: str
    instance: W.Instance
    path: Path  # the instance as a JSON file, for the CLI
    epsilon: float
    samples: int | None  # sample override; None uses the derived count
    workers: int  # workers of the measured calls
    draws: int  # draws every estimate must report
    pr_diff: float  # independent Pr[X != Y], scales the tolerances
    p: Any  # validated in-process
    q: Any

    @property
    def n(self) -> int:
        return self.instance.n

    def tolerance(self, reference: float) -> float:
        """Allowed |estimate - reference| for an estimate from ``draws`` draws.

        ``guarantee`` uses the paper's contract, epsilon * tv. The others use
        a Hoeffding bound on the mean of f in [0, 1], scaled by Pr[X != Y],
        which a correct estimate misses with probability FALSE_ALARM.
        """
        if self.name == "guarantee":
            bound = self.epsilon * reference
        else:
            bound = self.pr_diff * W.hoeffding_halfwidth(self.draws)
        return bound + self.instance.reference_slack


def prepare(name: str, seed: int, sizes: W.Sizes, directory: Path) -> Workload:
    """Generate the workload's inputs from the seed and write the instance file."""
    if name == "guarantee":
        instance = W.binary_instance(sizes.guarantee_n, [0.5, 0.5], [0.53, 0.47])
        epsilon, samples, workers = sizes.guarantee_epsilon, None, 1
        draws = W.paper_draws(instance.n, epsilon, W.DELTA)
    elif name == "wide-binary":
        instance = W.binary_instance(sizes.wide_n, [0.5, 0.5], [0.51, 0.49])
        epsilon, samples, workers = 0.1, sizes.wide_samples, 2
    elif name == "mixed-sparse":
        instance = W.mixed_instance(sizes.mixed_n, W.input_rng(seed, name))
        epsilon, samples, workers = 0.1, sizes.mixed_samples, 1
    elif name == "cli-wide":
        instance = W.mixed_instance(sizes.cli_n, W.input_rng(seed, name))
        epsilon, samples, workers = 0.1, sizes.cli_samples, 1
    else:
        raise ValueError(f"unknown workload {name!r}")
    path = directory / f"{name}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"p": instance.p, "q": instance.q}, handle)
    return Workload(
        name=name,
        instance=instance,
        path=path,
        epsilon=epsilon,
        samples=samples,
        workers=workers,
        draws=samples if samples is not None else draws,
        pr_diff=W.coupling_pr_diff(instance.p, instance.q),
        p=tvdist.validate(instance.p),
        q=tvdist.validate(instance.q),
    )


def call_seed(seed: int, index: int) -> int:
    """Estimator seed of call ``index`` in a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def child_env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports tvdist from ``src/`` and wait for it."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
    )


def run_cli(argv: list[str]) -> subprocess.CompletedProcess:
    return run_python(["-m", "tvdist.cli", *argv])


def info_argv(wl: Workload) -> list[str]:
    return ["info", str(wl.path), "--epsilon", repr(wl.epsilon), "--delta", repr(W.DELTA)]


def estimate_argv(wl: Workload, seed: int) -> list[str]:
    return [
        "estimate", str(wl.path), "--epsilon", repr(wl.epsilon), "--delta", repr(W.DELTA),
        "--seed", str(seed), "--samples", str(wl.samples), "--workers", str(wl.workers),
    ]  # fmt: skip


def estimate(wl: Workload, seed: int, workers: int) -> Any:
    config = tvdist.EstimatorConfig(
        epsilon=wl.epsilon,
        delta=W.DELTA,
        seed=seed,
        samples_override=wl.samples,
        workers=workers,
    )
    return tvdist.estimate_tv(wl.p, wl.q, config)


def oracle_reference(wl: Workload) -> tuple[float, list[str]]:
    """Reference tv and the problems found while establishing it.

    Binary workloads take the closed form and require the oracle to agree
    with it on a prefix; mixed workloads take the oracle's value on the
    coordinates that differ by more than ``TINY_D``.
    """
    inst = wl.instance
    exact = tvdist.exact_tv(tvdist.validate(inst.oracle_p), tvdist.validate(inst.oracle_q))
    if inst.reference is None:
        return exact, []
    if abs(exact - inst.prefix_tv) > PREFIX_TOL:
        return inst.reference, [
            f"oracle {exact!r} differs from the closed form {inst.prefix_tv!r} "
            f"on {len(inst.oracle_p)} coordinates"
        ]
    return inst.reference, []


def check_close(label: str, value: float, reference: float | None, tol: float) -> list[str]:
    if reference is None:
        return [f"{label}: no reference"]
    if not (math.isfinite(value) and abs(value - reference) <= tol):
        return [f"{label} {value!r} is off the reference {reference!r} by more than {tol:.3g}"]
    return []


def check_estimate(wl: Workload, result: Any, reference: float | None) -> list[str]:
    problems = check_close("estimate", result.estimate, reference, wl.tolerance(reference or 0.0))
    if result.samples_used != wl.draws:
        problems.append(f"used {result.samples_used} draws, expected {wl.draws}")
    return problems


def check_same_bits(a: Any, b: Any) -> list[str]:
    """workers = 1 and workers = 2 must agree to the bit on estimate and mean_f."""
    mismatched = [
        f"{field} {getattr(a, field)!r} != {getattr(b, field)!r}"
        for field in ("estimate", "mean_f")
        if float(getattr(a, field)).hex() != float(getattr(b, field)).hex()
    ]
    return [f"worker counts disagree: {', '.join(mismatched)}"] if mismatched else []


def check_info(wl: Workload, proc: subprocess.CompletedProcess) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    result = json.loads(proc.stdout)["result"]
    expected = W.paper_draws(wl.n, wl.epsilon, W.DELTA)
    problems = []
    if result["n"] != wl.n:
        problems.append(f"info reports n={result['n']}, expected {wl.n}")
    if result["sample_count"] != expected:
        problems.append(f"info reports m={result['sample_count']}, expected {expected}")
    return problems


class ReportChecker:
    """Checks a CLI ``estimate`` report: exit code, schema, draws and estimate."""

    def __init__(self) -> None:
        import jsonschema

        with open(SCHEMA, encoding="utf-8") as handle:
            self._validator = jsonschema.Draft202012Validator(json.load(handle))

    def __call__(
        self, wl: Workload, code: int, stdout: str, reference: float | None
    ) -> tuple[SimpleNamespace, list[str]]:
        """The report's result and the problems found; raises on a failed run."""
        if code != 0:
            raise RuntimeError(f"tvdist.cli exited with code {code}")
        report = json.loads(stdout)
        problems = [f"schema: {err.message}" for err in self._validator.iter_errors(report)]
        result = SimpleNamespace(**report["result"])
        return result, problems + check_estimate(wl, result, reference)


def peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# End-to-end run


def timed(times: list[float], call: Any, *args: Any) -> Any:
    """Call ``call(*args)`` and append its wall time to ``times``, even if it raises."""
    started = time.perf_counter()
    try:
        return call(*args)
    finally:
        times.append(time.perf_counter() - started)


def end_to_end(wl: Workload, seed: int, seconds: float, tally: Tally):
    """Closed loop of set-up and solve calls, interleaved over the whole window.

    Interleaving makes every median sample the same stretch of time, so a
    drift in machine speed moves them together rather than biasing one.
    Set-up is a fresh ``tvdist.cli info`` run, all the work before the first
    draw; the solve is ``estimate_tv`` in-process (plus ``naive_estimate_tv``
    on mixed-sparse), or a fresh ``tvdist.cli estimate`` run on cli-wide.
    """
    reference = None
    with tally.operation("reference") as problems:
        reference, found = oracle_reference(wl)
        problems += found
    cli = wl.name == "cli-wide"
    checker = ReportChecker() if cli else None
    run_cli(info_argv(wl))  # untimed: fills the bytecode and page caches once
    other = None  # the same first call on the other worker count
    if not cli:
        with tally.operation(f"estimate workers={3 - wl.workers}") as problems:
            other = estimate(wl, call_seed(seed, 0), 3 - wl.workers)
            problems += check_estimate(wl, other, reference)

    setup, solve, naive = [], [], []
    draws, first = wl.draws, None
    deadline = time.perf_counter() + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        call = call_seed(seed, index)
        with tally.operation("cli info") as problems:
            problems += check_info(wl, timed(setup, run_cli, info_argv(wl)))
        with tally.operation("estimate") as problems:
            if cli:
                proc = timed(solve, run_cli, estimate_argv(wl, call))
                result, found = checker(wl, proc.returncode, proc.stdout, reference)
                problems += found
            else:
                result = timed(solve, estimate, wl, call, wl.workers)
                problems += check_estimate(wl, result, reference)
            draws = result.samples_used
            if index == 0:
                first = result
        if wl.name == "mixed-sparse":
            with tally.operation("naive") as problems:
                result = timed(naive, tvdist.naive_estimate_tv, wl.p, wl.q, wl.draws, call)
                problems += check_close(
                    "naive estimate",
                    result.estimate,
                    reference,
                    W.hoeffding_halfwidth(wl.draws) + wl.instance.reference_slack,
                )
        index += 1
    rss = peak_rss_mb(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)

    with tally.operation("workers=1 vs workers=2") as problems:
        if cli:
            other = estimate(wl, call_seed(seed, 0), 2)
        if first is None or other is None:
            problems.append("an estimate to compare failed")
        else:
            problems += check_same_bits(first, other)

    solve_s = statistics.median(solve)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "solve_s": (solve_s, "s"),
        "ns_per_coord_sample": (solve_s * 1e9 / (wl.n * draws), "ns"),
        "draws": (draws, "count"),
        "peak_rss_mb": (rss, "MB"),
    }
    shown = {**metrics, "solve_calls": (len(solve), "count")}
    if naive:
        shown["naive_s"] = (statistics.median(naive), "s")
    shown["error_rate"] = (len(tally.failures) / tally.attempted, "ratio")
    return metrics, shown


# --------------------------------------------------------------------------
# Traced run


def duration(record: dict[str, Any]) -> float:
    return record["end"] - record["start"]


def cli_argv(wl: Workload, seed: int) -> list[str]:
    """The CLI command of the workload: what setup_s runs, or the solve on cli-wide."""
    return estimate_argv(wl, seed) if wl.name == "cli-wide" else info_argv(wl)


def traced_pass(
    wl: Workload, seed: int, tracer: Tracer, tally: Tally, checker: ReportChecker
) -> dict[str, float]:
    """One pass over every public call of the workload, each in its own span."""
    values: dict[str, float] = {}
    overhead_before = tracer.overhead_s
    inst = wl.instance
    with tracer.span("bench.pass", seed=seed) as root:
        reference = None
        with tally.operation("oracle.exact_tv") as problems:
            oracle_p, oracle_q = tvdist.validate(inst.oracle_p), tvdist.validate(inst.oracle_q)
            with tracer.span("oracle.exact_tv", states=oracle_p.state_count()) as span:
                exact = tvdist.exact_tv(oracle_p, oracle_q)
            values["oracle.exact_tv_s"] = duration(span)
            if inst.reference is None:
                reference = exact
            else:
                reference = inst.reference
                problems += check_close("oracle", exact, inst.prefix_tv, PREFIX_TOL)

        imports = []
        for _ in range(IMPORT_PROBES):
            with tally.operation("cli import") as problems:
                with tracer.span("cli.import"):
                    proc = run_python(["-c", IMPORT_PROBE])
                if proc.returncode != 0:
                    problems.append(f"exit code {proc.returncode}: {proc.stderr[-300:]}")
                else:
                    imports.append(float(proc.stdout))
        if imports:
            values["cli.import_s"] = statistics.median(imports)

        with tally.operation("cli.load_instance"):
            with tracer.span("cli.load_instance") as span:
                tvdist.cli.load_instance(str(wl.path))
            values["cli.load_instance_s"] = duration(span)

        with tally.operation("distributions.validate"):
            with tracer.span("distributions.validate", n=wl.n) as span:
                p = tvdist.validate(inst.p)
                q = tvdist.validate(inst.q)
            values["distributions.validate_s"] = duration(span)

        stats = None
        with tally.operation("coupling.build_stats") as problems:
            with tracer.span("coupling.build_stats") as span:
                stats = tvdist.build_stats(p, q)
            values["coupling.build_stats_s"] = duration(span)
            problems += check_close("pr_diff", stats.pr_diff, wl.pr_diff, 1e-9 * wl.pr_diff)

        argv = cli_argv(wl, seed)
        cli = wl.name == "cli-wide"
        with tally.operation(f"cli.main {argv[0]}") as problems:
            sink = io.StringIO()
            with tracer.span("cli.main", command=argv[0]) as span:
                with redirect_stdout(sink), redirect_stderr(io.StringIO()):
                    code = tvdist.cli.main(argv)
            main_s = values["cli.main_s"] = duration(span)
            if cli:
                problems += checker(wl, code, sink.getvalue(), reference)[1]
            elif code != 0:
                problems.append(f"exit code {code}")

        with tally.operation(f"cli process {argv[0]}") as problems:
            with tracer.span("cli.process", command=argv[0]) as span:
                proc = run_cli(argv)
            values["cli.process_s"] = duration(span) - main_s
            if cli:
                problems += checker(wl, proc.returncode, proc.stdout, reference)[1]
            else:
                problems += check_info(wl, proc)

        count = min(wl.draws, TRACE_SAMPLE_DRAWS)
        with tally.operation("coupling.sample_pi_batch") as problems:
            with tracer.span("coupling.sample_pi_batch", draws=count) as span:
                drawn = tvdist.sample_pi_batch(p, q, stats, seed, count)
            sample_s = values["coupling.sample_s"] = duration(span)
            values["coupling.sample_ns_per_coord_sample"] = sample_s * 1e9 / (wl.n * count)
            domain = np.array(p.domain_sizes)
            if drawn.shape != (count, wl.n) or not ((drawn >= 1) & (drawn <= domain)).all():
                problems.append(f"sample_pi_batch returned a bad {drawn.shape} array")

        results = {}
        for workers in (1, 2):
            with tally.operation(f"estimator.estimate_tv workers={workers}") as problems:
                with tracer.span("estimator.estimate_tv", workers=workers) as span:
                    results[workers] = estimate(wl, seed, workers)
                values[f"estimator.estimate_w{workers}_s"] = duration(span)
                problems += check_estimate(wl, results[workers], reference)
        with tally.operation("workers=1 vs workers=2") as problems:
            problems += check_same_bits(results[1], results[2])
            w1_s = values["estimator.estimate_w1_s"]
            values["estimator.parallel_speedup"] = w1_s / values["estimator.estimate_w2_s"]
            values["estimator.kernel_ratio"] = (w1_s / wl.draws) / (sample_s / count)
            values["estimator.blocks"] = len(tvdist.coupling.block_sizes(wl.draws))
            values["estimator.mean_f"] = results[1].mean_f
            values["estimator.rel_err"] = abs(results[1].estimate - reference) / reference

        count = min(wl.draws, TRACE_NAIVE_DRAWS)
        with tally.operation("estimator.naive_estimate_tv") as problems:
            with tracer.span("estimator.naive_estimate_tv", draws=count) as span:
                naive = tvdist.naive_estimate_tv(p, q, count, seed)
            values["estimator.naive_ns_per_coord_sample"] = duration(span) * 1e9 / (wl.n * count)
            problems += check_close(
                "naive estimate",
                naive.estimate,
                reference,
                W.hoeffding_halfwidth(count) + inst.reference_slack,
            )

    values["trace.overhead_s"] = tracer.overhead_s - overhead_before
    for layer, seconds in tracer.self_times(root["id"]).items():
        if layer in LAYERS:
            values[f"{layer}.self_s"] = seconds
    return values


LAYERS = ("cli", "distributions", "coupling", "estimator", "oracle")

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.load_instance_s": "s",
    "cli.main_s": "s",
    "cli.process_s": "s",
    "distributions.validate_s": "s",
    "coupling.build_stats_s": "s",
    "coupling.sample_s": "s",
    "coupling.sample_ns_per_coord_sample": "ns",
    "estimator.estimate_w1_s": "s",
    "estimator.estimate_w2_s": "s",
    "estimator.parallel_speedup": "x",
    "estimator.kernel_ratio": "ratio",
    "estimator.blocks": "count",
    "estimator.mean_f": "ratio",
    "estimator.rel_err": "ratio",
    "estimator.naive_ns_per_coord_sample": "ns",
    "oracle.exact_tv_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def per_layer(wl: Workload, seed: int, seconds: float, tally: Tally, spans_file: Path):
    tracer = Tracer(run_id=f"{wl.name}-{seed}-{os.getpid()}-{time.time_ns()}")
    checker = ReportChecker()
    passes: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(traced_pass(wl, call_seed(seed, len(passes)), tracer, tally, checker))
    tracer.write(spans_file, {"workload": wl.name, "seed": seed, "environment": environment()})
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        seen = [values[name] for values in passes if name in values]
        # A metric no pass produced belongs to an operation counted as failed.
        metrics[name] = (statistics.median(seen) if seen else 0.0, unit)
    return metrics, {**metrics, "passes": (len(passes), "count")}


# --------------------------------------------------------------------------
# Driver


def environment() -> dict[str, Any]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "tvdist": tvdist.__version__,
        "tvdist_file": tvdist.__file__,
        **git_state(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state() -> dict[str, Any]:
    """Commit and dirty flag of the checkout, or None when it is not a git work tree."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", *args], capture_output=True, text=True, cwd=ROOT, env=env, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {"commit": commit, "dirty": None if status is None else bool(status)}


@dataclass
class Outcome:
    result: dict[str, Any]  # the object printed as the last line
    shown: dict[str, tuple[float, str]]  # every metric printed, with its unit
    failures: list[str]


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, sizes: W.Sizes = W.FULL
) -> Outcome:
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="inputs-") as directory:
        wl = prepare(name, seed, sizes, Path(directory))
        if trace:
            spans_file = OUT / f"spans-{name}-seed{seed}.json"
            metrics, shown = per_layer(wl, seed, seconds, tally, spans_file)
        else:
            metrics, shown = end_to_end(wl, seed, seconds, tally)
    failed = len(tally.failures)
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return Outcome(result, shown, tally.failures)


def show(name: str, outcome: Outcome) -> None:
    print(f"workload {name}")
    for metric, (value, unit) in outcome.shown.items():
        print(f"  {metric:<38} {value:<14.6g} {unit}")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if tvdist is None or not Path(tvdist.__file__).resolve().is_relative_to(SRC):
        where = "not importable" if tvdist is None else tvdist.__file__
        print(f"perfbench: tvdist must come from {SRC}; it is {where}", file=sys.stderr)
        return 2

    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    print(json.dumps({"environment": environment()}))
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    show(args.workload, outcome)
    print(json.dumps(outcome.result))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in a process of its own, so peak RSS is per workload.

    Prints each workload's lines and, last, one object whose metrics are
    named ``<workload>.<metric>``.
    """
    final: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )  # fmt: skip
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        final["correct"] = final["correct"] and result["correct"]
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
