"""Every benchmark record has the fields ``tools/trajectory.py`` reads,
and the tool's rows show the run_s medians the records hold.  Each record
is checked against the workloads and metrics it holds, not against what
``BENCHMARK.json`` declares today.  No git needed."""

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location(
    "trajectory", ROOT / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory)

PATHS = sorted(ROOT.glob("BENCH_*.json"))
VERDICTS = {"better", "same", "worse", "unresolved"}


def _load(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_every_record_has_one_layout_with_medians_and_verdicts():
    assert len(PATHS) >= 12
    for path in PATHS:
        record = _load(path)
        assert record["end_to_end"], path.name
        for workload in record["end_to_end"]:
            results = trajectory.metrics_of(record, workload)
            assert "run_s" in results, (path.name, workload)
            for metric, result in results.items():
                for side in ("parent", "change"):
                    assert isinstance(result[side]["median"], float), (
                        path.name, workload, metric, side)
                assert result["verdict"] in VERDICTS, (path.name, workload)


def test_the_rows_show_the_medians_in_the_files(capsys, monkeypatch):
    monkeypatch.setattr(trajectory, "records", lambda: PATHS)
    assert trajectory.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(PATHS)
    for path, line in zip(PATHS, lines):
        record = _load(path)
        assert line.startswith(path.stem[len("BENCH_"):] + " ")
        for workload in record["end_to_end"]:
            result = trajectory.metrics_of(record, workload)["run_s"]
            cell = (f"{workload} {result['parent']['median']:.4g} -> "
                    f"{result['change']['median']:.4g} {result['verdict']}")
            assert cell in line, (path.name, cell, line)


def test_every_row_lists_the_workloads_in_the_benchmarks_order():
    """The columns line up: each row names its workloads in the order
    BENCHMARK.json declares them, whatever order the record keeps."""
    order = [w["name"] for w in _load(ROOT / "BENCHMARK.json")["workloads"]]
    for path in PATHS:
        names = [workload for workload, *_ in trajectory.row(_load(path))]
        assert names == [w for w in order if w in names], path.name
    record = _load(PATHS[0])
    record["end_to_end"] = dict(reversed(record["end_to_end"].items()))
    assert [w for w, *_ in trajectory.row(record)] == [
        w for w in order if w in record["end_to_end"]]
