"""EXPERIMENTS.md writer.

Renders checked paper claims into the markdown document that records
the reproduction status of every table and figure.
"""

from __future__ import annotations

from pathlib import Path

from repro.validation.expectations import CheckResult, render_report

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `python scripts/run_paper.py` from the experiment catalogue
(`repro.experiments.catalog`). Every row is one quantitative claim or
shape assertion from the paper checked against the value measured on
the simulated node at the default size. The simulation was
*calibrated* against a small set of anchor points (Table IV
equilibria, the idle power, the footnote-2 AC fit — see DESIGN.md and
`repro/specs/cpu.py`); all other rows are genuine predictions that
emerge from the interacting mechanism models.

Bound-type claims (the 3 W Fig. 2b residual bound, the ACPI-claim
comparisons, the SNB bias magnitude) record the bound as the "paper"
value; for those, a negative deviation means *comfortably inside the
bound*, which is the expected outcome. Shape rows (an inequality or
ordering, over every setting or cell it names) read 1 when they hold.

Absolute watts/GHz match because the power model was fitted to the
paper's measurements; the reproduction claims are the *shapes*: who
wins, by what factor, where the crossovers and saturation points fall.

## Summary

{summary}

## Claim-by-claim results

```
{table}
```

## Reading guide per experiment

| id | what to look at |
|---|---|
| Table I | derived rows (FLOPS/cycle, DRAM/QPI bandwidth) computed from primitive spec fields |
| Fig. 1 | die partitioning (8 / 8+4 / 8+10), queue bridges, hop statistics (structural; see `benchmarks/output/run_paper_fig1.txt`) |
| Table II | 261.5 W idle node power reproduced by the PSU/fan/idle-package model |
| Fig. 2a/2b | modeled-RAPL fan-out vs measured-RAPL single quadratic (R², residuals, coefficients) |
| Table III | UFS law: uncore follows the fastest active core's *setting*; passive socket one step below |
| Table IV | TDP capping at >= 2.2 GHz settings; core/uncore headroom exchange; the ~1 % IPS win of the 2.3 GHz setting over turbo; P0/P1 asymmetry |
| Fig. 3 | latency classes of the 500 us grant grid (random / instant / 400 us / ~quantum) |
| Fig. 4 | the mechanism *inferred back* from measurements (grant period, same-socket synchronicity) |
| Fig. 5 | C3: flat in frequency + 1.5 us step above 1.5 GHz; package C3 adder |
| Fig. 6 | C6: strong frequency dependence; package C6 +8 us; everything under the ACPI claims |
| Fig. 7 | relative bandwidth vs frequency: HSW DRAM flat, SNB proportional, WSM flat; HSW L3 tracks core clock |
| Fig. 8 | DRAM saturation at 8 cores / 60 GB/s; frequency independence at >= 10 cores; SMT only helps at low concurrency |
| Table V | LINPACK lowest power & frequency; FIRESTARTER steadiest; mprime fastest clocks; EPB ladder on mprime at 2.5 GHz |

The rendered tables and figures land in
`benchmarks/output/run_paper_<id>.txt`.
"""


def summarize(results: list[CheckResult]) -> str:
    n_ok = sum(1 for r in results if r.ok)
    worst = max(results, key=lambda r: abs(r.deviation_pct)
                if r.ok else float("inf"))
    lines = [
        f"* **{n_ok}/{len(results)} claims reproduced** within tolerance.",
    ]
    bad = [r for r in results if not r.ok]
    if bad:
        lines.append("* Deviating claims:")
        for r in bad:
            e = r.expectation
            lines.append(f"  * {e.experiment} — {e.quantity}: paper "
                         f"{e.paper_value:g} {e.unit}, measured "
                         f"{r.measured:.4g} {e.unit}")
    else:
        lines.append("* No deviating claims.")
    lines.append(f"* Largest in-tolerance deviation: "
                 f"{worst.expectation.experiment} — "
                 f"{worst.expectation.quantity} "
                 f"({worst.deviation_pct:+.1f} %).")
    return "\n".join(lines)


def write_experiments_md(path: str | Path,
                         results: list[CheckResult]) -> None:
    """Write EXPERIMENTS.md for the checked claims ``results``."""
    text = _HEADER.format(summary=summarize(results),
                          table=render_report(results))
    # Byte-stable regardless of platform/locale: pin the encoding and
    # suppress newline translation so regeneration never produces a
    # spurious diff (CRLF, latin-1 em dashes) on another machine.
    Path(path).write_text(text, encoding="utf-8", newline="\n")
