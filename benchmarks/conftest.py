"""Shared configuration for the paper's figure / table / ablation renderings.

Every file here regenerates one table or figure of the paper through the
drivers in :mod:`repro.harness.experiments` and asserts its shape and
answers; ``pytest-benchmark``'s ``benchmark`` fixture records how long the
rendering took and asserts nothing.  The configurations below keep the
datasets small enough that the whole directory finishes in seconds; the
``examples/run_full_evaluation.py`` script runs the same drivers at larger
scale.  Performance is measured by ``bench/run.py`` and compared by
``bench/compare.py``, nowhere else.
"""

import pytest

from repro.harness.experiments import ExperimentConfig


@pytest.fixture(scope="session")
def quick_config() -> ExperimentConfig:
    """Small datasets, truncated workloads — used by the per-figure benches."""
    return ExperimentConfig(scale=0.08, query_limit=10, timeout_seconds=8)


@pytest.fixture(scope="session")
def compliance_config() -> ExperimentConfig:
    """Config for the compliance benches (full BeSEPPI, small data)."""
    return ExperimentConfig(scale=0.06, query_limit=None, timeout_seconds=8)
