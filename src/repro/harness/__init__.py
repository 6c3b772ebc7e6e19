"""Experiment harness: timing, reporting and the per-table/figure drivers.

The experiment drivers live in :mod:`repro.harness.experiments`; import
that module directly (``from repro.harness import experiments``) — it is
not re-exported here to keep the package import graph acyclic (the
compliance runner uses :mod:`repro.harness.timing`, while the experiment
drivers use the compliance runner).
"""

from repro.harness.timing import TimeoutError_, budgeted_call, call_with_timeout, time_call
from repro.harness.report import format_summary, format_table, format_timing_series

__all__ = [
    "TimeoutError_",
    "budgeted_call",
    "call_with_timeout",
    "format_summary",
    "format_table",
    "format_timing_series",
    "time_call",
]
