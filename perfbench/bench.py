"""Run one benchmark workload: set-up timing, the timed loop, checks, output.

Load shape: one process, one thread (BLAS/OpenMP pinned by ``run.py``), a
closed loop of back-to-back iterations of one ``recpipe`` invocation made
through ``repro.cli.main``, no ``--jobs``.  Before each iteration every
in-process memo of ``repro`` is cleared, so each iteration does the work a
fresh ``recpipe`` process would, and its artifacts go to a fresh directory
under ``.perfbench/``.  The call is timed from outside; the outputs are
checked after it, outside the timed region.

Times are reported in reference seconds (:mod:`perfbench.reference`): a
fixed slice of reference work is timed just before and, by a probe in the
same thread, every 0.1 s during each untraced call, and the call's own host
seconds are scaled by the host speed the slices show, so a spell of host
contention cancels.  Set-up time is scaled the same way.  Host seconds stay
in the report and the run record.

With ``--trace 1`` the run alternates untraced and traced iterations
(:mod:`perfbench.spans`) and reports per-layer metrics plus the tracing
overhead; spans are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import THREAD_VARS, reference, spans
from perfbench.workloads import WORKLOADS, Outcome, digest, load_artifacts

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: Fresh interpreters timed for ``setup_s`` (the median is reported).
SETUP_RUNS = 5
#: Reference slices timed just before and just after each of them.
SETUP_SLICES = 50
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from repro.cli import build_parser; "
    "from repro.experiments.registry import default_registry; "
    "build_parser(); default_registry()"
)
#: End-to-end metrics and units; times are reference seconds.
END_TO_END = {"wall_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "work_per_ref_s": "1/s"}
#: Directories the repository-unchanged check skips: build, cache and run output.
UNTRACKED_DIRS = {
    ".git",
    ".perfbench",
    ".bench_build",
    "__pycache__",
    ".pytest_cache",
    ".hypothesis",
}


@dataclass
class Iteration:
    """One timed invocation and what its check found."""

    wall: float
    outcome: Outcome = field(default_factory=Outcome)
    digest: str = ""
    traced: bool = False
    #: Host seconds of the reference slices timed before and during the call.
    slices: list[float] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Whether the invocation succeeded and passed every check."""
        return not self.outcome.problems

    @property
    def wall_ref_s(self) -> float:
        """The iteration's time in reference seconds."""
        return reference.in_reference_seconds(self.wall, self.slices)


# --------------------------------------------------------------------------- #
# Environment
# --------------------------------------------------------------------------- #
def reset_memos() -> None:
    """Clear every ``functools`` cache of the loaded ``repro`` modules.

    These hold the quality evaluators (with their funnel memos) and the
    scenario table cache; a fresh ``recpipe`` process starts without them.
    """
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for value in vars(module).values():
            if id(value) not in seen and callable(getattr(value, "cache_clear", None)):
                seen.add(id(value))
                value.cache_clear()


def repository_files() -> dict[str, str]:
    """Return the SHA-256 of every repository file, build and run output excluded."""
    hashes = {}
    for directory, subdirs, files in os.walk(ROOT):
        subdirs[:] = [d for d in subdirs if d not in UNTRACKED_DIRS]
        for name in files:
            path = Path(directory, name)
            hashes[str(path.relative_to(ROOT))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def setup_seconds(runs: int) -> tuple[float, float]:
    """Return the median seconds from process start to CLI ready, over fresh interpreters.

    The first value is in reference seconds, the second in host seconds.
    """
    scaled, host = [], []
    for _ in range(runs):
        slices = reference.timed_slices(SETUP_SLICES)
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
        host.append(time.perf_counter() - start)
        slices += reference.timed_slices(SETUP_SLICES)
        scaled.append(reference.in_reference_seconds(host[-1], slices))
    return statistics.median(scaled), statistics.median(host)


def run_record(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Return the commit, host fingerprint, versions and load shape of a run."""
    import numpy

    commit = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = found.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "host": {"nproc": os.cpu_count(), "cpu": cpu, "ram_gb": round(ram / 2**30, 1)},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpus": sorted(os.sched_getaffinity(0)),
        "load": "closed loop, 1 process, 1 thread, no --jobs",
    }


# --------------------------------------------------------------------------- #
# The timed loop
# --------------------------------------------------------------------------- #
def _collect(sink: list, extract, original):
    @functools.wraps(original)
    def observed(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(extract(result))
        return result

    return observed


def run_iteration(workload, argv, seed: int, number: int, observed: list, tracer=None):
    """Run one cold-start invocation, timed from outside, then check it.

    An untraced call runs under a :class:`reference.Probe`, preceded by
    ``reference.LEAD`` slices; the iteration's ``wall`` excludes the probe's
    slices.  A traced call runs without, so no span holds probe time.
    """
    import repro.cli

    reset_memos()
    observed.clear()
    out = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        gc.collect()
        slices = reference.timed_slices(reference.LEAD) if tracer is None else []
        probe = reference.Probe() if tracer is None else contextlib.nullcontext()
        if tracer is not None:
            tracer.iteration, tracer.recording = number, True
        start = time.perf_counter()
        try:
            with probe, contextlib.redirect_stdout(io.StringIO()):
                code = repro.cli.main([*argv, "--output-dir", str(out)])
        except SystemExit as exc:  # argparse rejected the invocation
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.recording = False
            else:
                wall -= probe.spent
                slices += probe.samples
        if code != 0:
            problems = [f"recpipe exited with {code!r}"]
            return Iteration(wall, Outcome(problems=problems), slices=slices)
        try:
            artifacts = load_artifacts(out)
            outcome = workload.check(artifacts, seed, number, observed)
        except Exception as exc:  # a malformed artifact fails the iteration, not the run
            traceback.print_exc()
            problems = [f"output check failed: {exc!r}"]
            return Iteration(wall, Outcome(problems=problems), slices=slices)
        return Iteration(wall, outcome, digest(artifacts), slices=slices)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def measure(workload, seed: int, seconds: float, tiny: bool, tracer=None, minimum: int = 1):
    """Run back-to-back iterations until the next one would overrun ``seconds``.

    With a ``tracer``, iterations alternate untraced and traced, so both
    kinds see the same host conditions; the tracer's wrappers are installed
    only around the traced ones.  Every iteration must write the same
    artifacts (wall-clock fields excluded) as the first.
    """
    argv = workload.argv(seed, tiny)
    observed: list = []
    factories = {}
    if workload.observe is not None:
        target, extract = workload.observe
        factories[target] = functools.partial(_collect, observed, extract)
    iterations, durations = [], []
    begin = time.perf_counter()
    with spans.patched(factories):
        while True:
            start = time.perf_counter()
            traced = tracer is not None and len(iterations) % 2 == 1
            with spans.patched(tracer.factories() if traced else {}):
                iteration = run_iteration(
                    workload, argv, seed, len(iterations), observed, tracer if traced else None
                )
            iteration.traced = traced
            iterations.append(iteration)
            durations.append(time.perf_counter() - start)
            elapsed = time.perf_counter() - begin
            if len(iterations) >= minimum and elapsed + statistics.median(durations) > seconds:
                break
    first = next((it.digest for it in iterations if it.ok), "")
    for it in iterations:
        if it.ok and it.digest != first:
            it.outcome.problems.append("output digest differs from the first iteration")
    return iterations


def _good(iterations):
    return [it for it in iterations if it.ok] or iterations


def _end_to_end(workload, seed, seconds, tiny, setup_runs) -> tuple[list, dict, list[str]]:
    setup, setup_host = setup_seconds(setup_runs)
    iterations = measure(workload, seed, seconds, tiny, minimum=workload.min_iterations)
    good = _good(iterations)
    values = {
        "wall_ref_s": statistics.median(it.wall_ref_s for it in good),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work_per_ref_s": statistics.median(it.outcome.work / it.wall_ref_s for it in good),
    }
    lines = [f"{'metric':<16}{'value':>14}  unit"]
    lines += [f"{key:<16}{values[key]:>14.6g}  {unit}" for key, unit in END_TO_END.items()]
    lines.append(f"  work_per_ref_s counts {workload.work_unit} per reference second")
    lines.append(
        f"  host seconds, not gated: wall {statistics.median(it.wall for it in good):.4g}, "
        f"set-up {setup_host:.4g}, reference slice "
        f"{statistics.median(statistics.fmean(it.slices) for it in good):.4g} "
        f"(a slice takes {reference.NOMINAL_S:g} reference seconds)"
    )
    return iterations, values, lines


def _per_layer(workload, seed, seconds, tiny, record) -> tuple[list, dict, list[str], list[str]]:
    tracer = spans.Tracer()
    iterations = measure(workload, seed, seconds, tiny, tracer=tracer, minimum=4)
    traced_wall = statistics.median(it.wall for it in _good([it for it in iterations if it.traced]))
    untraced = _good([it for it in iterations if not it.traced])
    untraced_wall = statistics.median(it.wall for it in untraced)
    per_iteration = spans.per_iteration(tracer)
    values = spans.summarize(per_iteration)
    values["trace.overhead"] = traced_wall / untraced_wall
    span_file = WORK / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(span_file)
    record.update(
        tracing_overhead=values["trace.overhead"],
        traced_wall_s=traced_wall,
        spans=len(tracer.spans),
        span_file=str(span_file.relative_to(ROOT)),
    )
    problems = spans.problems(workload.name, per_iteration)
    return iterations, values, layer_table(values, traced_wall), problems


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    setup_runs: int = SETUP_RUNS,
) -> tuple[dict, dict, list[str]]:
    """Measure one workload and return ``(result, record, lines)``.

    ``result`` is the benchmark's JSON result line, ``record`` the run
    record, ``lines`` the human-readable report.
    """
    import repro.cli  # noqa: F401  (loads the stack before the repository snapshot)

    workload = WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    reference.timed_slices(reference.LEAD)  # warm-up: numpy's first calls are slower
    before = repository_files()
    record = run_record(name, seed, seconds, trace)
    run_problems: list[str] = []
    if trace:
        iterations, values, lines, run_problems = _per_layer(workload, seed, seconds, tiny, record)
        units = spans.metric_units()
    else:
        iterations, values, lines = _end_to_end(workload, seed, seconds, tiny, setup_runs)
        units = END_TO_END
    after = repository_files()
    changed = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    if changed:
        run_problems.append(f"the run changed repository files: {', '.join(changed[:5])}")
    failed = sum(not it.ok for it in iterations)
    ok = [it for it in iterations if it.ok]
    record.update(
        iterations=len(iterations),
        failed=failed,
        error_rate=failed / len(iterations),
        wall_s_samples=[it.wall for it in iterations],
        slice_s_means=[statistics.fmean(it.slices) for it in iterations if it.slices],
        digest=ok[0].digest if ok else None,
        stats=ok[0].outcome.stats if ok else None,
        problems=sorted({p for it in iterations for p in it.outcome.problems} | set(run_problems)),
    )
    header = f"perfbench {name}: seed {seed}, {len(iterations)} iterations, {failed} failed"
    lines = [header, *lines, f"digest {record['digest']}  {json.dumps(record['stats'])}"]
    lines += [f"problem: {problem}" for problem in record["problems"]]
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return result, record, lines


def layer_table(summary: dict, wall: float) -> list[str]:
    """Return the per-layer table: self time, share of traced wall, calls, counts."""
    lines = [f"{'layer':<36}{'self_s':>9}{'share':>8}{'calls':>10}  counts"]
    for layer in spans.LAYERS:
        if layer.name == "entry":
            continue
        counts = [f"{key}={summary[f'{layer.name}.{key}']:g}" for key in layer.counts]
        if layer.name == "quality":
            counts.append(f"hit_ratio={summary['quality.hit_ratio']:.4f}")
        own, calls = summary[f"{layer.name}.self_s"], summary[f"{layer.name}.calls"]
        row = f"{layer.name:<36}{own:>9.4f}{own / wall:>8.1%}{calls:>10g}"
        lines.append(f"{row}  {' '.join(counts)}")
    for entry in spans.ENTRY_IDS:
        seconds = summary[f"entry.{entry}.s"]
        lines.append(f"{f'entry.{entry}.s':<36}{seconds:>9.4f}{seconds / wall:>8.1%}")
    lines.append(f"traced wall_s {wall:.4f}, tracing overhead {summary['trace.overhead']:.3f}x")
    return lines


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """Parse the benchmark's command line."""
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=12, help="measuring time per run")
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=0,
        help="1: traced run with the per-layer table instead of end-to-end metrics",
    )
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    """Run the benchmark; the last line printed is the JSON result."""
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result, record, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    record_file = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(f"record {json.dumps(record)}")
    print(json.dumps(result))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process (peak RSS is per process)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        command = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        done = subprocess.run(command, capture_output=True, text=True)
        output = done.stdout.strip().splitlines()
        print("\n".join(line for line in output[:-1] if not line.startswith("record ")))
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not output:
            return 1
        result = json.loads(output[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0
