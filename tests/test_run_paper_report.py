"""The committed run_paper report is byte-stable and canonical.

Two layers guard against the drift that used to rewrite
``benchmarks/output/run_paper_report.json`` on every smoke run:

* the committed artifact itself must be in ``to_stable_json`` canonical
  form (idempotent re-dump, only deterministic fields, trailing
  newline) and must describe exactly the default ``run_paper`` suite;
* ``SuiteReport.to_stable_json`` must return identical bytes for
  identical outcomes regardless of wall-clock timing or worker count.
"""

import importlib.util
import json
from pathlib import Path

from repro.faults.runner import ExperimentRunner, ExperimentSpec

REPO = Path(__file__).parents[1]
REPORT = REPO / "benchmarks" / "output" / "run_paper_report.json"


def _run_paper_module():
    spec = importlib.util.spec_from_file_location(
        "run_paper", REPO / "scripts" / "run_paper.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCommittedReport:
    def test_is_canonical_stable_form(self):
        text = REPORT.read_text()
        data = json.loads(text)
        # Idempotent: re-dumping with the to_stable_json settings must
        # reproduce the committed bytes exactly.
        assert json.dumps(data, indent=2, sort_keys=True) + "\n" == text

    def test_only_deterministic_fields(self):
        data = json.loads(REPORT.read_text())
        assert set(data) == {"counts", "experiments"}
        for record in data["experiments"]:
            assert set(record) == {"attempts", "error", "name", "status"}

    def test_counts_agree_with_records(self):
        data = json.loads(REPORT.read_text())
        tally: dict[str, int] = {}
        for record in data["experiments"]:
            tally[record["status"]] = tally.get(record["status"], 0) + 1
        assert data["counts"] == tally

    def test_covers_exactly_the_default_suite(self):
        run_paper = _run_paper_module()
        expected = list(run_paper._experiments(full=False))
        data = json.loads(REPORT.read_text())
        assert [r["name"] for r in data["experiments"]] == expected
        assert all(r["status"] == "ok" for r in data["experiments"])


def _build_alpha() -> str:
    return "alpha artifact"


def _build_beta() -> str:
    return "beta artifact"


def _tiny_suite() -> list[ExperimentSpec]:
    return [ExperimentSpec(name="alpha", build=_build_alpha),
            ExperimentSpec(name="beta", build=_build_beta)]


class TestStableRendering:
    def test_bytes_identical_across_repeat_runs(self):
        first = ExperimentRunner(_tiny_suite()).run().to_stable_json()
        second = ExperimentRunner(_tiny_suite()).run().to_stable_json()
        assert first == second
        assert first.endswith("\n")

    def test_bytes_identical_serial_vs_workers(self):
        serial = ExperimentRunner(_tiny_suite(), jobs=1).run()
        workers = ExperimentRunner(_tiny_suite(), jobs=2).run()
        assert serial.to_stable_json() == workers.to_stable_json()
        # ... even though the timing fields of the raw report differ.
        assert [o.record() for o in serial.outcomes] \
            == [o.record() for o in workers.outcomes]

    def test_stable_json_drops_timing_and_paths(self):
        report = ExperimentRunner(_tiny_suite()).run()
        for outcome in report.outcomes:
            outcome_dict = outcome.to_dict()
            assert "duration_s" in outcome_dict      # present in raw form
        data = json.loads(report.to_stable_json())
        for record in data["experiments"]:
            assert "duration_s" not in record
            assert "artifact" not in record
