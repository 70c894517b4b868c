"""Golden artifact digests: a fixed set of ``recpipe`` invocations, checked byte for byte.

    python tools/golden.py [--update] [--base DIR]

Runs every invocation of :data:`INVOCATIONS` with the tree holding this
script (one ``python -m repro`` process each, into a scratch directory) and
hashes every artifact it writes: a JSON artifact as its text with each
``wall_clock_seconds`` value blanked, a CSV as its raw bytes.  The
SHA-256 digests are compared with ``tests/golden/digests.json``, which also
records the Python, numpy and C library versions and the numpy kernels it
was made with, since the bytes of a float can depend on them.

The kernels a float is computed with are pinned, since both numpy and its
OpenBLAS pick them by CPU and the pick changes bytes: on an AVX-512 host,
switching numpy's AVX-512 kernels off changes ``route``, ``tab01`` and the
cache and router scenarios, and ``tab01`` also changes with OpenBLAS's
core type (``SkylakeX`` against ``Haswell``) and its thread count (1
against 2).  Every invocation runs with :data:`PINNED` and with
``NPY_DISABLE_CPU_FEATURES`` naming each feature numpy would dispatch to
on this CPU, so numpy runs its baseline kernels and OpenBLAS its SSE3
kernels on one thread: the same numpy and OpenBLAS machine code on every
x86-64 CPU.  The C library's ``pow``, ``log2`` and ``exp`` still come from
the host, whose version the digests record.

* Without options it prints ``golden: N artifacts match`` and exits 0, or
  names each differing, missing or unexpected file and exits 1.
* ``--update`` rewrites ``digests.json`` from this run; a change that moves
  artifacts on purpose commits the new file, so review sees which moved.
* ``--base DIR`` also runs the invocations in ``DIR`` (a checkout of the
  commit the digests were made on) and prints each differing file's first
  differing line, as ``recpipe compare`` prints a changed CSV's.

A digest made in another environment than the one running is still
compared; both environments are printed beside a mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

HEAD = Path(__file__).resolve().parent.parent
DIGESTS = HEAD / "tests" / "golden" / "digests.json"
#: Output directory name -> ``recpipe`` arguments.  The set every
#: byte-identical change has been checked with: both seeds of the full
#: registry, the all-platform Criteo and MovieLens sweeps, the cached
#: per-query route, the rowwise capacity plan and the smoke scenario.
INVOCATIONS = {
    "run": "run",
    "run-seed-1": "run --seed 1",
    "sweep": "sweep --platform all --qps 250,500,1000,2000",
    "sweep-movielens": "sweep --dataset movielens-20m --platform all --qps 100,1000",
    "route": "route --mode per-query --trace diurnal,spike --service-model cached",
    "capacity": "capacity --max-nodes 8 --strategy rowwise",
    "smoke": "run --scenario scenarios/smoke.json --tag smoke",
}
#: Seconds one invocation may take.
RUN_TIMEOUT_S = 600
_TIMING = re.compile(r'("wall_clock_seconds": )[^,\n]*')
#: OpenBLAS's kernels for every invocation: generic SSE3 ones on one thread.
PINNED = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}
#: Prints the numpy kernels a process runs: the baseline and what it dispatches to.
_KERNELS = """
try:
    from numpy._core import _multiarray_umath as u
except ImportError:
    from numpy.core import _multiarray_umath as u
print(" ".join(u.__cpu_baseline__ + [f for f in u.__cpu_dispatch__ if u.__cpu_features__[f]]))
"""


def artifact_text(path: Path) -> bytes:
    """The bytes a digest covers: JSON with timing values blanked, CSV as written."""
    data = path.read_bytes()
    if path.suffix == ".json":
        data = _TIMING.sub(r"\1null", data.decode("utf-8")).encode("utf-8")
    return data


def pinned_env() -> dict[str, str]:
    """``os.environ`` with :data:`PINNED`, and every feature numpy dispatches to here disabled."""
    dispatched = [f for f in _umath.__cpu_dispatch__ if _umath.__cpu_features__[f]]
    disabled = " ".join([os.environ.get("NPY_DISABLE_CPU_FEATURES", ""), *dispatched]).strip()
    return {**os.environ, **PINNED, "NPY_DISABLE_CPU_FEATURES": disabled}


def run_invocations(tree: Path, scratch: Path) -> dict[str, Path]:
    """Run every invocation with ``tree``'s sources; return each artifact path by name."""
    env = {**pinned_env(), "PYTHONPATH": str(tree / "src")}
    artifacts = {}
    for name, invocation in INVOCATIONS.items():
        out = scratch / name
        command = [sys.executable, "-m", "repro", *invocation.split(), "--output-dir", str(out)]
        done = subprocess.run(
            [*command, "--quiet"],
            cwd=tree,
            env=env,
            capture_output=True,
            text=True,
            timeout=RUN_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise SystemExit(f"golden: `recpipe {invocation}` failed in {tree}:\n{done.stderr}")
        for path in sorted(out.iterdir()):
            if path.suffix in (".json", ".csv"):
                artifacts[f"{name}/{path.name}"] = path
    return artifacts


def environment() -> dict[str, str]:
    """The interpreter, numpy, C library and kernels the artifacts were made with."""
    kernels = subprocess.run(
        [sys.executable, "-c", _KERNELS],
        env=pinned_env(),
        capture_output=True,
        text=True,
        check=True,
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "libc": " ".join(platform.libc_ver()),
        "numpy_kernels": kernels.stdout.strip(),
        **PINNED,
    }


def first_difference(head: bytes, base: bytes) -> str:
    """The first line where two artifact texts differ, both sides, line endings included."""
    head_lines = head.decode("utf-8").splitlines(keepends=True)
    base_lines = base.decode("utf-8").splitlines(keepends=True)
    for number, (line, reference) in enumerate(zip(head_lines, base_lines), start=1):
        if line != reference:
            return f"line {number}: base {reference!r}, head {line!r}"
    shorter = min(len(head_lines), len(base_lines))
    return f"line {shorter + 1}: base has {len(base_lines)} lines, head {len(head_lines)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", help="rewrite the digest file")
    parser.add_argument("--base", type=Path, help="a checkout to show differing lines against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="golden-") as scratch:
        artifacts = run_invocations(HEAD, Path(scratch) / "head")
        digests = {
            name: hashlib.sha256(artifact_text(path)).hexdigest()
            for name, path in artifacts.items()
        }
        if args.update:
            DIGESTS.parent.mkdir(parents=True, exist_ok=True)
            record = {"environment": environment(), "artifacts": digests}
            DIGESTS.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
            print(f"golden: wrote {len(digests)} digests to {DIGESTS}")
            return 0
        golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
        expected = golden["artifacts"]
        common = expected.keys() & digests.keys()
        changed = sorted(name for name in common if expected[name] != digests[name])
        missing = sorted(expected.keys() - digests.keys())
        unexpected = sorted(digests.keys() - expected.keys())
        if not (changed or missing or unexpected):
            print(f"golden: {len(digests)} artifacts match")
            return 0
        print(f"golden: digests made on {golden['environment']}, this run on {environment()}")
        base = run_invocations(args.base.resolve(), Path(scratch) / "base") if args.base else {}
        for name in changed:
            detail = ""
            if name in base:
                head_text, base_text = artifact_text(artifacts[name]), artifact_text(base[name])
                detail = ": " + first_difference(head_text, base_text)
            print(f"changed: {name}{detail}")
        for name in missing:
            print(f"missing: {name}")
        for name in unexpected:
            print(f"unexpected: {name}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
