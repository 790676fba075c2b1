"""The experiment catalogue and the claim gate run_paper builds on it.

* one order: the catalogue, run_paper's suite, perfbench's paper-suite
  ids and the committed outcome report list the same 14 experiments;
* a build may return ``Built(text, result)``: the artifact and record
  are the ones a plain ``str`` build gives, and the result never enters
  a report;
* run_paper checks the claims only on a whole, chaos-free suite, and
  ``--strict`` exits 1 when one deviates.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.experiments import catalog
from repro.faults.runner import Built, ExperimentRunner, ExperimentSpec
from repro.validation.expectations import PaperExpectation, check

REPO = Path(__file__).parents[1]


def _load(path: Path, name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    # registered while the test runs: dataclasses look their module up
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def run_paper(monkeypatch):
    return _load(REPO / "scripts" / "run_paper.py", "run_paper", monkeypatch)


def test_one_order_everywhere(run_paper, monkeypatch):
    names = list(catalog.CATALOG)
    perfbench = _load(REPO / "perfbench" / "catalog.py", "perfbench_catalog",
                      monkeypatch)
    report = json.loads((REPO / "benchmarks" / "output"
                         / "run_paper_report.json").read_text())
    assert len(names) == 14
    assert names == list(perfbench.EXPERIMENT_IDS)
    assert names == list(run_paper._experiments(False))
    assert names == [r["name"] for r in report["experiments"]]


def _text_build() -> str:
    return "alpha artifact"


def _built_build() -> Built:
    return Built("alpha artifact", {"secret": 1234567})


def _run(build, jobs: int = 1):
    written = {}

    def write(name: str, text: str) -> Path:
        written[name] = (text + "\n").encode("utf-8")
        return Path(name)

    report = ExperimentRunner([ExperimentSpec(name="alpha", build=build)],
                              artifact_writer=write, jobs=jobs).run()
    return report, written


class TestBuilt:
    def test_str_and_built_builds_write_the_same(self):
        plain, plain_written = _run(_text_build)
        built, built_written = _run(_built_build)
        assert plain_written == built_written
        assert plain.records() == built.records()
        assert plain.to_stable_json() == built.to_stable_json()
        assert plain.outcomes[0].result is None
        assert built.outcomes[0].result == {"secret": 1234567}

    def test_workers_carry_the_result_home(self):
        report, _ = _run(_built_build, jobs=2)
        assert report.outcomes[0].result == {"secret": 1234567}

    def test_result_never_enters_a_report(self):
        report, _ = _run(_built_build)
        for rendering in (report.to_stable_json(), report.to_json()):
            assert "result" not in rendering
            assert "1234567" not in rendering


def _stub_catalog(measured: float) -> dict:
    """Two fast entries; "b" owns a claim on both results."""
    def claims(results):
        return [check(PaperExpectation("Stub", "a plus b", 3.0, "",
                                       abs_tol=0.5),
                      results["a"] + results["b"])]

    return {name: catalog.Experiment(
                name=name, run=lambda value: value, render=str,
                default=dict(value=value), full=dict(value=value),
                claims=claims if name == "b" else lambda results: [])
            for name, value in (("a", 1.0), ("b", measured))}


@pytest.fixture
def stubbed(run_paper, monkeypatch, tmp_path):
    """run_paper over a stub catalogue, writing under ``tmp_path``."""
    def main(measured: float, *args: str) -> int:
        stub = _stub_catalog(measured)
        monkeypatch.setattr(catalog, "CATALOG", stub)
        monkeypatch.setattr(run_paper, "CATALOG", stub)
        monkeypatch.setattr(run_paper, "REPO", tmp_path)
        monkeypatch.setattr(run_paper, "OUTPUT_DIR", tmp_path / "output")
        monkeypatch.setattr(sys, "argv", ["run_paper.py", *args])
        return run_paper.main()
    return main


class TestClaimGate:
    def test_all_claims_hold(self, stubbed, tmp_path):
        assert stubbed(2.0, "--strict") == 0
        text = (tmp_path / "EXPERIMENTS.md").read_text()
        assert "**1/1 claims reproduced**" in text

    def test_one_deviating_claim_fails_strict(self, stubbed, tmp_path,
                                              capsys):
        assert stubbed(5.0, "--strict") == 1
        assert "1 paper claim(s) deviate" in capsys.readouterr().err
        assert "DEVIATES" in (tmp_path / "EXPERIMENTS.md").read_text()

    def test_deviation_without_strict_exits_0(self, stubbed):
        assert stubbed(5.0) == 0

    def test_subset_run_checks_no_claims(self, stubbed, tmp_path):
        assert stubbed(5.0, "--strict", "--only", "b") == 0
        assert not (tmp_path / "EXPERIMENTS.md").exists()

    def test_chaos_run_checks_no_claims(self, stubbed, tmp_path):
        assert stubbed(5.0, "--strict", "--chaos", "1") == 0
        assert not (tmp_path / "EXPERIMENTS.md").exists()
        # Chaos artifacts never overwrite the committed ones.
        out = tmp_path / "output"
        assert not list(out.glob("run_paper_?.txt"))
        assert (out / "run_paper_a.chaos.txt").exists()
        assert (out / "run_paper_b.chaos.txt").exists()

    def test_full_run_gates_but_writes_no_experiments_md(self, stubbed,
                                                         tmp_path):
        assert stubbed(5.0, "--strict", "--full") == 1
        assert not (tmp_path / "EXPERIMENTS.md").exists()

    def test_full_run_writes_experiments_full_md(self, stubbed, tmp_path):
        assert stubbed(2.0, "--strict", "--full") == 0
        text = (tmp_path / "EXPERIMENTS_full.md").read_text()
        assert "**1/1 claims reproduced**" in text
        assert "`python scripts/run_paper.py --full`" in text
        assert "the paper's own size" in text
        assert not (tmp_path / "EXPERIMENTS.md").exists()
        assert stubbed(2.0, "--strict", "--full", "--only", "b") == 0
        assert stubbed(2.0, "--strict", "--full", "--chaos", "1") == 0
        assert text == (tmp_path / "EXPERIMENTS_full.md").read_text()

    def test_full_run_writes_full_artifacts(self, stubbed, tmp_path):
        assert stubbed(2.0, "--full") == 0
        # Paper-size artifacts never overwrite the committed ones.
        out = tmp_path / "output"
        assert not list(out.glob("run_paper_?.txt"))
        assert (out / "run_paper_a.full.txt").exists()
        assert (out / "run_paper_b.full.txt").exists()
