"""The golden-digest check (``tools/golden.py``) on a one-invocation set."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
TINY = {"tiny": "sweep --platform cpu --qps 100 --num-queries 50"}


@pytest.fixture(scope="module")
def golden():
    spec = importlib.util.spec_from_file_location("golden", REPO_ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_digests_ignore_timing_and_csv_digests_keep_every_byte(golden, tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text('{\n  "wall_clock_seconds": 1.25e-05,\n  "seed": 0\n}\n')
    assert golden.artifact_text(manifest) == b'{\n  "wall_clock_seconds": null,\n  "seed": 0\n}\n'
    table = tmp_path / "rows.csv"
    table.write_bytes(b"wall_clock_seconds\r\n1.5\r\n")
    assert golden.artifact_text(table) == b"wall_clock_seconds\r\n1.5\r\n"


def test_first_difference_names_the_line(golden):
    assert golden.first_difference(b"a\nb\nc\n", b"a\nx\nc\n") == "line 2: base 'x\\n', head 'b\\n'"
    line_ending = golden.first_difference(b"a\r\nb\n", b"a\r\nb\r\n")
    assert line_ending == "line 2: base 'b\\r\\n', head 'b\\n'"
    assert golden.first_difference(b"a\n", b"a\nb\n") == "line 2: base has 2 lines, head 1"


def test_invocations_run_numpy_baseline_kernels_and_the_recorded_openblas(golden):
    """numpy's AVX-512 kernels and OpenBLAS's core type and threads each change bytes."""
    recorded = json.loads(golden.DIGESTS.read_text())["environment"]
    env = golden.pinned_env()
    assert golden.PINNED and all(env[name] == recorded[name] for name in golden.PINNED)
    baseline = golden._umath.__cpu_baseline__
    assert golden.environment()["numpy_kernels"] == " ".join(baseline)


def test_update_then_check_then_a_changed_digest(golden, tmp_path, monkeypatch, capsys):
    digests = tmp_path / "digests.json"
    monkeypatch.setattr(golden, "INVOCATIONS", TINY)
    monkeypatch.setattr(golden, "DIGESTS", digests)
    assert golden.main(["--update"]) == 0
    record = json.loads(digests.read_text())
    environment = {"python", "numpy", "libc", "numpy_kernels", *golden.PINNED}
    assert set(record["environment"]) == environment
    assert "tiny/sweep.csv" in record["artifacts"] and "tiny/manifest.json" in record["artifacts"]
    capsys.readouterr()
    assert golden.main([]) == 0
    assert capsys.readouterr().out == f"golden: {len(record['artifacts'])} artifacts match\n"
    record["artifacts"]["tiny/sweep.csv"] = "0" * 64
    record["artifacts"]["tiny/gone.json"] = "0" * 64
    digests.write_text(json.dumps(record))
    assert golden.main([]) == 1
    out = capsys.readouterr().out
    assert "changed: tiny/sweep.csv\n" in out and "missing: tiny/gone.json\n" in out
