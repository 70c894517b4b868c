"""Gate a change on the repository benchmark: base and head perfbench runs in alternating pairs.

    python tools/perf_gate.py --base DIR [--pairs 3]

``DIR`` is a checkout of the commit to compare against (for example a
``git worktree`` at the merge base with the target branch); the head is the
tree holding this script.  For every workload in the head's
``BENCHMARK.json`` the gate runs the benchmark command (``python3
perfbench/run.py --workload W``) once in each tree per pair, alternating
which tree goes first, and reads the JSON result on the last line of each
run and the artifact digest on its ``record`` line.

It prints one row per workload and end-to-end metric: both medians, both
interquartile ranges, the pairs the head won and a verdict, then exits 1 if
any of these holds:

* a head run reports ``correct: false`` (or prints no result);
* the head failed a larger share of its iterations than the base;
* a head median is worse than the base median by more than the metric's
  ``BENCHMARK.json`` bound (a fraction of the base median) and the head lost
  every pair (verdict ``regression``).

A median beyond the bound with split pairs is ``unresolved`` and does not
fail the gate.  Per workload it also prints ``outputs equal`` when every
base and head run wrote the same artifact digest and ``outputs differ``
otherwise; that line never fails the gate, since a change that re-baselines
an artifact moves its digest on purpose.  The gate reads ``perfbench/`` and
``BENCHMARK.json`` and changes neither; each run leaves its record under the
tree's ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
#: Seconds one benchmark run may take before it counts as failed.
RUN_TIMEOUT_S = 900


def run_once(tree: Path, command: list[str], workload: str) -> dict:
    """One benchmark run in ``tree``: its JSON result, or a failed stand-in.

    A run that printed a ``record`` line adds the record's artifact
    ``digest`` to its result.
    """
    try:
        done = subprocess.run(
            [*command, "--workload", workload],
            cwd=tree,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if done.returncode != 0:
        result["correct"] = False
    record = next((line for line in reversed(lines) if line.startswith("record ")), None)
    if record is not None:
        try:
            result["digest"] = json.loads(record.removeprefix("record ")).get("digest")
        except json.JSONDecodeError:
            result["digest"] = None
    return result


def outputs(runs: dict[str, list[dict]]) -> str:
    """``outputs equal`` when every base and head run wrote one artifact digest."""
    digests = {result.get("digest") for results in runs.values() for result in results}
    return "outputs equal" if len(digests) == 1 and None not in digests else "outputs differ"


def iqr(values: list[float]) -> float:
    """Distance between the upper and lower quartiles (0 for one value)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def compare(metric: dict, base: list[float], head: list[float]) -> tuple[list[str], bool]:
    """The table cells of one metric and whether the head regressed beyond doubt."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base_median, head_median = statistics.median(base), statistics.median(head)
    worse = sign * (head_median - base_median) / abs(base_median) if base_median else 0.0
    won = sum(sign * (b - h) > 0 for b, h in zip(base, head))
    lost = sum(sign * (h - b) > 0 for b, h in zip(base, head))
    verdict = "ok"
    if worse > metric["bound"]:
        verdict = "regression" if lost == len(base) else "unresolved"
    cells = [
        f"{base_median:.4g}",
        f"{iqr(base):.3g}",
        f"{head_median:.4g}",
        f"{iqr(head):.3g}",
        f"{sign * worse:+.1%}",
        f"{won}/{len(base)}",
        verdict,
    ]
    return cells, verdict == "regression"


def main(argv: list[str] | None = None) -> int:
    """Run every workload in alternating pairs and print the gate table."""
    parser = argparse.ArgumentParser(prog="perf_gate", description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout to compare against")
    parser.add_argument("--pairs", type=int, default=3, help="base/head run pairs per workload")
    args = parser.parse_args(argv)
    base_tree = args.base.resolve()
    if not (base_tree / "perfbench" / "run.py").is_file():
        parser.error(f"no perfbench/run.py under {base_tree}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((HEAD / "BENCHMARK.json").read_text(encoding="utf-8"))

    header = ["workload", "metric", "base", "base IQR", "head", "head IQR", "change", "won"]
    rows, problems, digest_lines = [[*header, "verdict"]], [], []
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                tree = base_tree if side == "base" else HEAD
                runs[side].append(run_once(tree, spec["command"], workload))
                print(f"{workload} pair {pair + 1}/{args.pairs} {side} done", file=sys.stderr)
        digest_lines.append(f"{workload}: {outputs(runs)}")
        if not all(result["correct"] for result in runs["head"]):
            problems.append(f"{workload}: a head run reported correct: false")
        shares = {
            side: sum(r["failed"] for r in results) / max(sum(r["attempted"] for r in results), 1)
            for side, results in runs.items()
        }
        if shares["head"] > shares["base"]:
            problems.append(
                f"{workload}: head failed {shares['head']:.1%} of iterations, "
                f"base {shares['base']:.1%}"
            )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values = {
                side: [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
                for side, results in runs.items()
            }
            if len(values["base"]) != args.pairs or len(values["head"]) != args.pairs:
                rows.append([workload, name, *["-"] * 6, "missing"])
                continue
            cells, regressed = compare(metric, values["base"], values["head"])
            rows.append([workload, name, *cells])
            if regressed:
                problems.append(
                    f"{workload}: {name} worse than the base by more than "
                    f"{metric['bound']:.0%}, in every pair"
                )

    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
    for line in digest_lines:
        print(line)
    for problem in problems:
        print(f"perf gate: {problem}")
    print(f"perf gate: {'failed' if problems else 'passed'} ({args.pairs} pairs per workload)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
