"""Paper-expectation checker.

A quantitative claim is a :class:`PaperExpectation` (experiment id,
quantity, paper value, tolerance); this package checks measured values
against it and renders the paper-vs-measured table that EXPERIMENTS.md
records. The claims themselves belong to the experiment catalogue
(``repro.experiments.catalog``).
"""

from repro.validation.expectations import (
    PaperExpectation,
    CheckResult,
    check,
    render_report,
)

__all__ = ["PaperExpectation", "CheckResult", "check", "render_report"]
