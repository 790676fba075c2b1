"""Runnable reproductions of every table and figure in the paper.

Each module exposes a ``run_*`` function returning a structured result
plus a ``render_*`` helper that prints the same rows/series the paper
reports. ``repro.experiments.catalog`` sizes the paper's 14 of them and
owns their claims; the extension-study benchmarks in ``benchmarks/``
and the examples call into these too.
"""

from repro.experiments.table1_microarch import run_table1, render_table1
from repro.experiments.fig1_topology import run_fig1, render_fig1
from repro.experiments.table2_system import run_table2, render_table2
from repro.experiments.fig2_rapl_accuracy import run_fig2, render_fig2
from repro.experiments.table3_uncore import run_table3, render_table3
from repro.experiments.table4_firestarter import run_table4, render_table4
from repro.experiments.fig3_pstate_latency import run_fig3, render_fig3
from repro.experiments.fig5_fig6_cstate_latency import (
    run_cstate_figure,
    render_cstate_figure,
)
from repro.experiments.fig7_fig8_bandwidth import (
    run_fig7,
    run_fig8,
    render_fig7,
    render_fig8,
)
from repro.experiments.table5_max_power import run_table5, render_table5
from repro.experiments.fig4_mechanism import estimate_mechanism, render_fig4
from repro.experiments.powercap import run_powercap_sweep, render_powercap
from repro.experiments.ufs_ablation import run_ufs_ablation, render_ufs_ablation
from repro.experiments.eet_rate_sweep import (
    run_eet_rate_sweep,
    render_eet_rate_sweep,
)
from repro.experiments.epb_turbo_characterization import (
    run_epb_mapping,
    render_epb_mapping,
    run_turbo_bins,
    render_turbo_bins,
)
from repro.experiments.avx_transient import (
    run_avx_transient,
    render_avx_transient,
)
from repro.experiments.ht_study import run_ht_study, render_ht_study
from repro.experiments.hostif_parity import (
    run_hostif_parity,
    render_hostif_parity,
)
from repro.faults.runner import (
    ExperimentOutcome,
    ExperimentRunner,
    ExperimentSpec,
    SuiteReport,
)

__all__ = [
    "ExperimentOutcome", "ExperimentRunner", "ExperimentSpec", "SuiteReport",
    "run_table1", "render_table1",
    "run_fig1", "render_fig1",
    "run_table2", "render_table2",
    "run_fig2", "render_fig2",
    "run_table3", "render_table3",
    "run_table4", "render_table4",
    "run_fig3", "render_fig3",
    "run_cstate_figure", "render_cstate_figure",
    "run_fig7", "run_fig8", "render_fig7", "render_fig8",
    "run_table5", "render_table5",
    "estimate_mechanism", "render_fig4",
    "run_powercap_sweep", "render_powercap",
    "run_ufs_ablation", "render_ufs_ablation",
    "run_eet_rate_sweep", "render_eet_rate_sweep",
    "run_epb_mapping", "render_epb_mapping",
    "run_turbo_bins", "render_turbo_bins",
    "run_avx_transient", "render_avx_transient",
    "run_ht_study", "render_ht_study",
    "run_hostif_parity", "render_hostif_parity",
]
