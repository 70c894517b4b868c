"""The CI perf gate's verdicts (``tools/perf_gate.py``), on synthetic benchmark results."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
WALL = {"name": "wall_ref_s", "better": "lower", "bound": 0.25}
THROUGHPUT = {"name": "work_per_ref_s", "better": "higher", "bound": 0.25}


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("perf_gate", REPO_ROOT / "tools" / "perf_gate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestVerdicts:
    def test_within_the_bound_is_ok_even_when_every_pair_is_lost(self, gate):
        cells, regressed = gate.compare(WALL, [1.0, 1.0, 1.0], [1.2, 1.2, 1.2])
        assert cells[-1] == "ok" and not regressed
        assert cells[-2] == "0/3"
        assert cells[-3] == "+20.0%"

    def test_beyond_the_bound_in_every_pair_is_a_regression(self, gate):
        cells, regressed = gate.compare(WALL, [1.0, 1.1, 0.9], [1.4, 1.5, 1.3])
        assert cells[-1] == "regression" and regressed

    def test_beyond_the_bound_with_split_pairs_is_unresolved(self, gate):
        cells, regressed = gate.compare(WALL, [1.0, 1.0, 2.0], [1.4, 1.4, 1.5])
        assert cells[-1] == "unresolved" and not regressed
        assert cells[-2] == "1/3"

    def test_higher_is_better_metrics_regress_downward(self, gate):
        cells, regressed = gate.compare(THROUGHPUT, [10.0, 10.0, 10.0], [7.0, 7.0, 7.0])
        assert cells[-1] == "regression" and regressed
        assert cells[-3] == "-30.0%"
        cells, regressed = gate.compare(THROUGHPUT, [10.0, 10.0, 10.0], [20.0, 20.0, 20.0])
        assert cells[-1] == "ok" and cells[-2] == "3/3" and not regressed

    def test_iqr(self, gate):
        assert gate.iqr([3.0]) == 0.0
        assert gate.iqr([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(2.0)


class TestRunOnce:
    def command(self, script: str) -> list[str]:
        return [sys.executable, "-c", script]

    def test_reads_the_last_json_line(self, gate, tmp_path):
        result = {"correct": True, "attempted": 2, "failed": 0, "metrics": {}}
        script = f"import sys; print('report'); print({json.dumps(json.dumps(result))})"
        assert gate.run_once(tmp_path, self.command(script), "serve") == result

    def test_a_run_without_a_result_or_with_a_failing_exit_is_incorrect(self, gate, tmp_path):
        missing = gate.run_once(tmp_path, self.command("print('no json')"), "serve")
        assert missing["correct"] is False and missing["failed"] == 1
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        script = f"import sys; print({json.dumps(json.dumps(result))}); sys.exit(3)"
        assert gate.run_once(tmp_path, self.command(script), "serve")["correct"] is False

    def test_reads_the_digest_on_the_record_line(self, gate, tmp_path):
        result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}
        record = {"workload": "fleet", "digest": "35ee"}
        script = (
            f"print('perfbench fleet'); print('record ' + {json.dumps(json.dumps(record))}); "
            f"print({json.dumps(json.dumps(result))})"
        )
        assert gate.run_once(tmp_path, self.command(script), "fleet")["digest"] == "35ee"


class TestOutputs:
    """Whether base and head wrote the same artifacts is printed, never gated on."""

    @pytest.mark.parametrize(
        "base_digest, head_digest, verdict",
        [("35ee", "35ee", "outputs equal"), ("35ee", "a1b2", "outputs differ")],
    )
    def test_one_line_per_workload(
        self, gate, tmp_path, monkeypatch, capsys, base_digest, head_digest, verdict
    ):
        result = {
            "correct": True,
            "attempted": 1,
            "failed": 0,
            "metrics": {"wall_ref_s": {"value": 1.0, "unit": "s"}},
        }
        for side, digest in (("base", base_digest), ("head", head_digest)):
            (tmp_path / side / "perfbench").mkdir(parents=True)
            (tmp_path / side / "perfbench" / "run.py").write_text(
                f"import json\nprint('record ' + json.dumps({{'digest': {digest!r}}}))\n"
                f"print(json.dumps({result!r}))\n",
                encoding="utf-8",
            )
        spec = {
            "command": [sys.executable, "perfbench/run.py"],
            "workloads": [{"name": "fleet"}],
            "end_to_end": [WALL],
        }
        (tmp_path / "head" / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        monkeypatch.setattr(gate, "HEAD", tmp_path / "head")
        assert gate.main(["--base", str(tmp_path / "base"), "--pairs", "2"]) == 0
        out = capsys.readouterr().out
        assert f"fleet: {verdict}\n" in out and "perf gate: passed" in out

    def test_a_run_without_a_digest_differs(self, gate):
        runs = {"base": [{"digest": "35ee"}], "head": [{"correct": False}]}
        assert gate.outputs(runs) == "outputs differ"
