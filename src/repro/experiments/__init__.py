"""Experiment harness: regenerates every table and figure in the paper.

One module per artifact (see DESIGN.md §4 for the experiment index):

* :mod:`repro.experiments.table2` — E-T2, the V workload parameters.
* :mod:`repro.experiments.figure1` — E-F1/E-SIM, relative server
  consistency load vs lease term (analytic S-curves + trace-driven curve).
* :mod:`repro.experiments.figure2` — E-F2, consistency delay vs term.
* :mod:`repro.experiments.figure3` — E-F3, delay at 100 ms round trip.
* :mod:`repro.experiments.claims` — E-CL, the §3.2 headline numbers.
* :mod:`repro.experiments.ablations` — A-BATCH/A-INST/A-ANT/A-ADPT/A-MCAST.
* :mod:`repro.experiments.workload_curves` — E-WL, local hit rate and server
  consistency load vs lease term under production-shaped workloads
  (Zipf skew, flash crowd), LRU vs hybrid LRU+LFU eviction.

Every module exposes ``run()`` returning structured results plus a
``render()`` producing the plain-text table/series the paper reports.
``python -m repro.experiments`` runs them all.
"""

from repro.experiments.common import CONSISTENCY_KINDS, FIGURE_TERMS, render_table

__all__ = ["CONSISTENCY_KINDS", "FIGURE_TERMS", "render_table"]
