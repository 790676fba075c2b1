"""Benchmark-harness helpers.

Each benchmark runs one extension study (``study_*``, ``ablation_*``),
asserts its findings, and writes the rendered artifact to
``benchmarks/output/``. Set ``REPRO_FULL=1`` to run the paper-length
parameterizations; the default scales these down to keep the harness
fast while preserving every shape. The paper's own tables and figures
are ``scripts/run_paper.py``'s catalogue (``repro.experiments.catalog``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

OUTPUT_DIR = Path(__file__).parent / "output"

FULL = os.environ.get("REPRO_FULL", "0") == "1"


def write_artifact(name: str, text: str) -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def full_mode() -> bool:
    return FULL
