"""The EXPERIMENTS.md writer (on stubbed claim results)."""

from pathlib import Path

from repro.validation.expectations import PaperExpectation, check
from repro.validation.report import summarize, write_experiments_md


def _fake_results(all_ok: bool = True):
    good = check(PaperExpectation("Table X", "quantity a", 10.0, "W",
                                  abs_tol=1.0), 10.2)
    other = check(PaperExpectation("Fig. Y", "quantity b", 5.0, "GHz",
                                   abs_tol=0.001 if not all_ok else 2.0),
                  6.0)
    return [good, other]


class TestSummarize:
    def test_all_ok_summary(self):
        text = summarize(_fake_results(all_ok=True))
        assert "2/2 claims reproduced" in text
        assert "No deviating claims" in text

    def test_deviations_listed(self):
        text = summarize(_fake_results(all_ok=False))
        assert "1/2 claims reproduced" in text
        assert "quantity b" in text


class TestWriteExperimentsMd:
    def test_writes_markdown(self, tmp_path):
        out = tmp_path / "EXPERIMENTS.md"
        write_experiments_md(out, _fake_results())
        text = out.read_text()
        assert text.startswith("# EXPERIMENTS")
        assert "Table X" in text and "quantity b" in text
        assert "Reading guide" in text
        assert "scripts/run_paper.py" in text

    def test_output_is_byte_stable(self, tmp_path):
        """Two generations must produce identical bytes: LF newlines and
        UTF-8 regardless of platform/locale, no timestamps, no
        hash-order dependence."""
        a, b = tmp_path / "a.md", tmp_path / "b.md"
        write_experiments_md(a, _fake_results())
        write_experiments_md(b, _fake_results())
        raw = a.read_bytes()
        assert raw == b.read_bytes()
        assert b"\r" not in raw
        raw.decode("utf-8")       # must already be utf-8, not locale


class TestRepoExperimentsMdFresh:
    def test_checked_in_report_is_complete(self):
        text = (Path(__file__).parents[1] / "EXPERIMENTS.md").read_text()
        # one row per registered claim family, spot-check key ones
        for needle in ("idle node power", "quadratic fit R^2",
                       "IPS gain 2.3 GHz vs turbo",
                       "inferred grant period",
                       "DRAM saturation bandwidth",
                       "LINPACK max-window power"):
            assert needle in text, needle
