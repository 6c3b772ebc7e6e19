"""Compliance test runner: execute query suites across engines.

The runner follows the experimental protocol of the paper: each query is
run on every engine (optionally with a timeout,
:func:`repro.harness.timing.budgeted_call`), the expected answer comes
either from the benchmark itself (BeSEPPI) or from majority voting across
the engines (FEASIBLE, SP2Bench), and each answer is classified into the
Table 3 error taxonomy.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence

from repro.compliance.compare import (
    ComparisonOutcome,
    ResultLike,
    classify_result,
    majority_vote,
)
from repro.harness.timing import budgeted_call
from repro.workloads.beseppi import BeSEPPIQuery
from repro.workloads.sp2bench import BenchmarkQuery


@dataclass
class QueryRecord:
    """The outcome of one (engine, query) pair."""

    engine: str
    query_id: str
    category: str
    outcome: ComparisonOutcome
    elapsed_seconds: float = 0.0
    error: Optional[str] = None


@dataclass
class ComplianceReport:
    """All records of a compliance run, with aggregation helpers."""

    benchmark: str
    records: List[QueryRecord] = field(default_factory=list)

    def outcome_counts(self, engine: str) -> Counter:
        return Counter(
            record.outcome for record in self.records if record.engine == engine
        )

    def outcome_counts_by_category(self, engine: str) -> Dict[str, Counter]:
        grouped: Dict[str, Counter] = defaultdict(Counter)
        for record in self.records:
            if record.engine == engine:
                grouped[record.category][record.outcome] += 1
        return dict(grouped)

    def correct_count(self, engine: str) -> int:
        return self.outcome_counts(engine)[ComparisonOutcome.CORRECT]

    def total_queries(self) -> int:
        engines = {record.engine for record in self.records}
        if not engines:
            return 0
        return len(self.records) // len(engines)


class ComplianceRunner:
    """Run a query suite over a set of engines and classify the answers.

    ``engines`` maps the name a report uses to an engine; an engine is
    anything with ``query(text)``.  Whatever it raises, or running out of
    ``timeout_seconds``, is the "Error" outcome.
    """

    def __init__(
        self, engines: Mapping[str, object], timeout_seconds: Optional[float] = None
    ) -> None:
        self.engines = dict(engines)
        self.timeout_seconds = timeout_seconds

    def _run_all(self, query_text: str) -> Dict[str, tuple]:
        """``name -> (result, error, seconds)`` of one query on every engine."""
        return {
            name: budgeted_call(partial(engine.query, query_text), self.timeout_seconds)
            for name, engine in self.engines.items()
        }

    # ------------------------------------------------------------------
    # benchmark-specific entry points
    # ------------------------------------------------------------------
    def run_with_expected(
        self, benchmark_name: str, queries: Sequence[BeSEPPIQuery]
    ) -> ComplianceReport:
        """Run a suite whose queries carry their expected answer (BeSEPPI)."""
        report = ComplianceReport(benchmark=benchmark_name)
        for query in queries:
            expected: ResultLike
            if query.expected_boolean is not None:
                expected = query.expected_boolean
            else:
                expected = query.expected_rows
            for name, outcome in self._run_all(query.text).items():
                report.records.append(
                    _record(name, query.query_id, query.category, expected, outcome)
                )
        return report

    def run_with_majority_vote(
        self, benchmark_name: str, queries: Sequence[BenchmarkQuery]
    ) -> ComplianceReport:
        """Run a suite without expected answers (FEASIBLE / SP2Bench)."""
        report = ComplianceReport(benchmark=benchmark_name)
        for query in queries:
            outcomes = self._run_all(query.text)
            expected = majority_vote([result for result, _, _ in outcomes.values()])
            category = query.features[0] if query.features else "general"
            for name, outcome in outcomes.items():
                report.records.append(
                    _record(name, query.query_id, category, expected, outcome)
                )
        return report


def _record(engine: str, query_id: str, category: str, expected, outcome) -> QueryRecord:
    result, error, seconds = outcome
    return QueryRecord(
        engine=engine,
        query_id=query_id,
        category=category,
        outcome=classify_result(result, expected, errored=error is not None),
        elapsed_seconds=seconds or 0.0,
        error=error,
    )
