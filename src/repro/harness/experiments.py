"""Experiment drivers: one function per table / figure of the paper.

Every driver returns a structured result object and can render itself as
text; the ``benchmarks/`` suite calls these functions with a small
:class:`ExperimentConfig` so that the full evaluation can be regenerated
with ``pytest benchmarks/ --benchmark-only`` in minutes, and the
``examples/`` scripts call them with larger scales for closer-to-paper
runs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines.stardog_like import StardogLikeEngine
from repro.baselines.virtuoso_like import VirtuosoLikeEngine
from repro.compliance.compare import ComparisonOutcome
from repro.compliance.runner import ComplianceReport, ComplianceRunner
from repro.core.capabilities import FEATURE_TABLE
from repro.core.engine import SparqLogEngine
from repro.engine import create_engine
from repro.harness.report import format_table, format_timing_series
from repro.harness.timing import budgeted_call
from repro.workloads.beseppi import BeSEPPIWorkload, CATEGORY_COUNTS
from repro.workloads.feasible import FeasibleWorkload
from repro.workloads.feature_analysis import (
    PAPER_TABLE2,
    TABLE2_COLUMNS,
    analyze_workload_features,
)
from repro.workloads.gmark import GMarkWorkload, social_scenario, test_scenario
from repro.workloads.ontology_bench import OntologyBenchmark
from repro.workloads.sp2bench import SP2BenchWorkload


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment drivers.

    ``scale`` shrinks the generated datasets relative to the paper's sizes;
    ``query_limit`` truncates query workloads (useful inside
    pytest-benchmark); ``timeout_seconds`` is the per-query budget standing
    in for the paper's 900 s timeout.
    """

    scale: float = 0.12
    query_limit: Optional[int] = None
    timeout_seconds: float = 10.0
    seed: int = 1

    def limited(self, queries: Sequence) -> List:
        if self.query_limit is None:
            return list(queries)
        return list(queries)[: self.query_limit]


@dataclass
class PerformanceSeries:
    """Per-query execution times of several systems on one workload."""

    workload: str
    query_ids: List[str] = field(default_factory=list)
    times: Dict[str, List[Optional[float]]] = field(default_factory=dict)
    errors: Dict[str, List[Optional[str]]] = field(default_factory=dict)

    def failures(self, engine: str) -> int:
        return sum(1 for value in self.times.get(engine, []) if value is None)

    def completed(self, engine: str) -> int:
        return sum(1 for value in self.times.get(engine, []) if value is not None)

    def total_time(self, engine: str) -> float:
        return sum(value for value in self.times.get(engine, []) if value is not None)

    def render(self) -> str:
        return format_timing_series(
            self.query_ids, self.times, title=f"{self.workload} — per-query time"
        )


# ----------------------------------------------------------------------
# engine factories
# ----------------------------------------------------------------------
def default_engine_factories(
    timeout_seconds: float,
) -> Dict[str, Callable]:
    """Factories building a fresh engine over a dataset (reload per query)."""
    return {
        "SparqLog": lambda dataset: SparqLogEngine(
            dataset, timeout_seconds=timeout_seconds
        ),
        "Native": create_engine,
        "VirtuosoLike": VirtuosoLikeEngine,
    }


def _run_performance(
    workload_name: str,
    dataset_factory: Callable,
    queries: Sequence,
    engine_factories: Dict[str, Callable],
    config: ExperimentConfig,
) -> PerformanceSeries:
    """Time every query on every engine, reloading the dataset each time."""
    series = PerformanceSeries(workload=workload_name)
    series.query_ids = [query.query_id for query in queries]
    for engine_name in engine_factories:
        series.times[engine_name] = []
        series.errors[engine_name] = []
    for query in queries:
        for engine_name, factory in engine_factories.items():
            engine = factory(dataset_factory())
            _, error, elapsed = budgeted_call(
                partial(engine.query, query.text), config.timeout_seconds
            )
            series.times[engine_name].append(elapsed)
            series.errors[engine_name].append(error)
    return series


# ----------------------------------------------------------------------
# Table 1 — SPARQL feature coverage of SparqLog
# ----------------------------------------------------------------------
def table1_feature_coverage() -> str:
    """Regenerate Table 1 from the capability registry."""
    rows = [
        (
            row.general_feature,
            row.specific_feature,
            row.usage or "",
            "yes" if row.supported else "no",
        )
        for row in FEATURE_TABLE
    ]
    return format_table(
        ["General Feature", "Specific Feature", "Feature Usage", "Supported"],
        rows,
        title="Table 1 — SPARQL feature coverage of SparqLog",
    )


# ----------------------------------------------------------------------
# Table 2 — feature coverage of SPARQL benchmarks
# ----------------------------------------------------------------------
def table2_benchmark_features(config: Optional[ExperimentConfig] = None) -> str:
    """Analyse the generated workloads and print them next to the paper's values."""
    config = config or ExperimentConfig()
    workloads = [
        (
            "SP2Bench",
            SP2BenchWorkload(scale=config.scale, seed=config.seed).queries(),
        ),
        (
            "FEASIBLE (S)",
            FeasibleWorkload(scale=config.scale, seed=config.seed).queries(),
        ),
        (
            "gMark Social",
            GMarkWorkload(social_scenario(), scale=config.scale, seed=config.seed).queries(),
        ),
        (
            "gMark Test",
            GMarkWorkload(test_scenario(), scale=config.scale, seed=config.seed).queries(),
        ),
    ]
    headers = ["Benchmark", "Queries"] + [abbrev for _, abbrev in TABLE2_COLUMNS]
    rows: List[List] = []
    for name, queries in workloads:
        profile = analyze_workload_features(name, queries)
        rows.append([name, profile.query_count] + profile.as_row())
    rows.append(["--- paper reference ---", ""] + [""] * len(TABLE2_COLUMNS))
    for name, values in PAPER_TABLE2.items():
        rows.append(
            [name, ""] + [values[abbrev] for _, abbrev in TABLE2_COLUMNS]
        )
    return format_table(
        headers, rows, title="Table 2 — feature coverage of SPARQL benchmarks"
    )


def _compliance_engines(dataset, config: ExperimentConfig) -> Dict:
    """The three engines of the compliance tables, in their column order."""
    return {
        "VirtuosoLike": VirtuosoLikeEngine(dataset),
        "Native": create_engine(dataset),
        "SparqLog": SparqLogEngine(dataset, timeout_seconds=config.timeout_seconds),
    }


# ----------------------------------------------------------------------
# Table 3 — BeSEPPI compliance
# ----------------------------------------------------------------------
def table3_beseppi_compliance(
    config: Optional[ExperimentConfig] = None,
) -> Tuple[ComplianceReport, str]:
    """Run the BeSEPPI-like suite on the three engines and tabulate errors."""
    config = config or ExperimentConfig()
    workload = BeSEPPIWorkload()
    queries = config.limited(workload.queries())
    engines = _compliance_engines(workload.dataset(), config)
    runner = ComplianceRunner(engines, timeout_seconds=config.timeout_seconds)
    report = runner.run_with_expected("BeSEPPI", queries)

    categories = list(CATEGORY_COUNTS)
    headers = ["Expression"]
    for name in engines:
        headers += [
            f"{name} inc&cor",
            f"{name} com&inc",
            f"{name} inc&inc",
            f"{name} error",
        ]
    headers.append("#Queries")
    rows: List[List] = []
    per_engine = {name: report.outcome_counts_by_category(name) for name in engines}
    query_counts = Counter(query.category for query in queries)
    for category in categories:
        row: List = [category]
        for name in engines:
            counts = per_engine[name].get(category, Counter())
            row += [
                counts[ComparisonOutcome.INCOMPLETE_CORRECT],
                counts[ComparisonOutcome.COMPLETE_INCORRECT],
                counts[ComparisonOutcome.INCOMPLETE_INCORRECT],
                counts[ComparisonOutcome.ERROR],
            ]
        row.append(query_counts.get(category, 0))
        rows.append(row)
    totals: List = ["Total"]
    for name in engines:
        counts = report.outcome_counts(name)
        totals += [
            counts[ComparisonOutcome.INCOMPLETE_CORRECT],
            counts[ComparisonOutcome.COMPLETE_INCORRECT],
            counts[ComparisonOutcome.INCOMPLETE_INCORRECT],
            counts[ComparisonOutcome.ERROR],
        ]
    totals.append(sum(query_counts.values()))
    rows.append(totals)
    text = format_table(headers, rows, title="Table 3 — BeSEPPI compliance results")
    return report, text


# ----------------------------------------------------------------------
# Section 6.2 — FEASIBLE and SP2Bench compliance (majority voting)
# ----------------------------------------------------------------------
def feasible_sp2bench_compliance(
    config: Optional[ExperimentConfig] = None,
) -> Tuple[Dict[str, ComplianceReport], str]:
    """Compliance of the three engines on FEASIBLE(S) and SP2Bench."""
    config = config or ExperimentConfig()
    reports: Dict[str, ComplianceReport] = {}
    lines: List[str] = []
    for workload in (
        FeasibleWorkload(scale=config.scale, seed=config.seed),
        SP2BenchWorkload(scale=config.scale, seed=config.seed),
    ):
        engines = _compliance_engines(workload.dataset(), config)
        runner = ComplianceRunner(engines, timeout_seconds=config.timeout_seconds)
        queries = config.limited(workload.queries())
        report = runner.run_with_majority_vote(workload.name, queries)
        reports[workload.name] = report
        headers = ["Engine", "correct", "incomplete", "incorrect", "both", "error"]
        rows = []
        for name in engines:
            counts = report.outcome_counts(name)
            rows.append(
                [
                    name,
                    counts[ComparisonOutcome.CORRECT],
                    counts[ComparisonOutcome.INCOMPLETE_CORRECT],
                    counts[ComparisonOutcome.COMPLETE_INCORRECT],
                    counts[ComparisonOutcome.INCOMPLETE_INCORRECT],
                    counts[ComparisonOutcome.ERROR],
                ]
            )
        lines.append(
            format_table(
                headers,
                rows,
                title=f"Compliance on {workload.name} ({len(queries)} queries)",
            )
        )
    return reports, "\n\n".join(lines)


# ----------------------------------------------------------------------
# Figure 7 / Table 11 — SP2Bench performance
# ----------------------------------------------------------------------
def figure7_sp2bench_performance(
    config: Optional[ExperimentConfig] = None,
) -> PerformanceSeries:
    config = config or ExperimentConfig()
    workload = SP2BenchWorkload(scale=config.scale, seed=config.seed)
    queries = config.limited(workload.queries())
    return _run_performance(
        "SP2Bench (Figure 7)",
        workload.dataset,
        queries,
        default_engine_factories(config.timeout_seconds),
        config,
    )


# ----------------------------------------------------------------------
# Figures 8 / 9 and Tables 7–10 — gMark performance
# ----------------------------------------------------------------------
def figure8_gmark_social(
    config: Optional[ExperimentConfig] = None,
) -> PerformanceSeries:
    config = config or ExperimentConfig()
    workload = GMarkWorkload(
        social_scenario(), scale=config.scale, seed=config.seed, query_count=config.query_limit
    )
    return _run_performance(
        "gMark Social (Figure 8)",
        workload.dataset,
        workload.queries(),
        default_engine_factories(config.timeout_seconds),
        config,
    )


def figure9_gmark_test(
    config: Optional[ExperimentConfig] = None,
) -> PerformanceSeries:
    config = config or ExperimentConfig()
    workload = GMarkWorkload(
        test_scenario(), scale=config.scale, seed=config.seed, query_count=config.query_limit
    )
    return _run_performance(
        "gMark Test (Figure 9)",
        workload.dataset,
        workload.queries(),
        default_engine_factories(config.timeout_seconds),
        config,
    )


def table7_8_gmark_summary(series: PerformanceSeries) -> str:
    """Summarise a gMark run in the style of Tables 7 / 8."""
    headers = ["System", "#Answered", "#Time-outs / errors", "Total time [s]"]
    rows = []
    for engine_name in series.times:
        rows.append(
            [
                engine_name,
                series.completed(engine_name),
                series.failures(engine_name),
                series.total_time(engine_name),
            ]
        )
    return format_table(headers, rows, title=f"Summary — {series.workload}")


# ----------------------------------------------------------------------
# Table 6 — benchmark statistics
# ----------------------------------------------------------------------
def table6_benchmark_statistics(config: Optional[ExperimentConfig] = None) -> str:
    config = config or ExperimentConfig()
    workloads = [
        GMarkWorkload(social_scenario(), scale=config.scale, seed=config.seed),
        GMarkWorkload(test_scenario(), scale=config.scale, seed=config.seed),
        SP2BenchWorkload(scale=config.scale, seed=config.seed),
    ]
    headers = ["Benchmark", "#Triples", "#Predicates", "#Queries"]
    rows = []
    for workload in workloads:
        statistics = workload.statistics()
        rows.append(
            [
                getattr(workload, "name", type(workload).__name__),
                statistics["triples"],
                statistics["predicates"],
                statistics["queries"],
            ]
        )
    return format_table(headers, rows, title="Table 6 — benchmark statistics")


# ----------------------------------------------------------------------
# Figure 10 — ontological reasoning performance
# ----------------------------------------------------------------------
def figure10_ontology(
    config: Optional[ExperimentConfig] = None,
) -> PerformanceSeries:
    config = config or ExperimentConfig()
    benchmark = OntologyBenchmark(scale=config.scale, seed=config.seed)
    queries = config.limited(benchmark.queries())
    engine_factories = {
        "SparqLog": lambda dataset: SparqLogEngine(
            dataset,
            ontology=benchmark.ontology,
            timeout_seconds=config.timeout_seconds,
        ),
        "StardogLike": lambda dataset: StardogLikeEngine(
            dataset, ontology=benchmark.ontology
        ),
    }
    return _run_performance(
        "SP2Bench + ontology (Figure 10)",
        benchmark.dataset,
        queries,
        engine_factories,
        config,
    )
