"""Tests for the experiment harness (timing, reporting, drivers)."""

import ast
import time
from pathlib import Path

import pytest

from repro.compliance.compare import ComparisonOutcome
from repro.harness import experiments
from repro.harness.report import format_summary, format_table, format_timing_series
from repro.harness.timing import TimeoutError_, budgeted_call, call_with_timeout, time_call


class TestTiming:
    def test_time_call(self):
        result, elapsed = time_call(lambda: sum(range(1000)))
        assert result == sum(range(1000))
        assert elapsed >= 0

    def test_timeout_interrupts_long_call(self):
        def busy():
            deadline = time.time() + 5
            while time.time() < deadline:
                pass
            return "done"

        with pytest.raises(TimeoutError_):
            call_with_timeout(busy, 0.2)

    def test_timeout_returns_fast_result(self):
        assert call_with_timeout(lambda: 42, 5) == 42

    def test_budgeted_call_records_a_failure_instead_of_raising(self):
        result, error, seconds = budgeted_call(lambda: 42, 5)
        assert (result, error) == (42, None) and seconds >= 0

        def fails():
            raise ValueError("bad query")

        assert budgeted_call(fails, None) == (None, "ValueError: bad query", None)


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["x", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert all(line.startswith("|") for line in lines)
        assert "—" in text

    def test_format_timing_series_marks_failures(self):
        text = format_timing_series(
            ["q1", "q2"],
            {"SparqLog": [0.5, None], "Native": [0.1, 0.2]},
        )
        assert "TIMEOUT/ERROR" in text
        assert "q1" in text and "q2" in text

    def test_format_summary(self):
        text = format_summary({"triples": 100, "time": 1.5}, title="stats")
        assert "stats" in text
        assert "triples" in text

    def test_gmark_summary_prints_totals_below_a_hundredth_of_a_second(self):
        series = experiments.PerformanceSeries(
            "gMark",
            ["q1", "q2"],
            {"SparqLog": [0.01, 0.0101], "Native": [0.0042, None], "VirtuosoLike": [0.001, 0.002]},
        )
        text = experiments.table7_8_gmark_summary(series)
        cells = {
            line.split("|")[1].strip(): [cell.strip() for cell in line.split("|")[2:-1]]
            for line in text.splitlines()
            if line.startswith("|")
        }
        assert cells["SparqLog"] == ["2", "0", "0.0201"]
        assert cells["Native"] == ["1", "1", "0.0042"]
        assert cells["VirtuosoLike"] == ["2", "0", "0.0030"]


class TestExperimentDrivers:
    CONFIG = experiments.ExperimentConfig(scale=0.04, query_limit=4, timeout_seconds=5)

    def test_table1(self):
        text = experiments.table1_feature_coverage()
        assert "OPTIONAL" in text and "ZeroOrMorePath" in text

    def test_table2(self):
        text = experiments.table2_benchmark_features(self.CONFIG)
        assert "SP2Bench" in text and "FEASIBLE" in text

    def test_table3_small(self):
        report, text = experiments.table3_beseppi_compliance(self.CONFIG)
        assert "Total" in text
        assert report.correct_count("SparqLog") == 4

    def test_table6(self):
        text = experiments.table6_benchmark_statistics(self.CONFIG)
        assert "gMark" in text

    def test_figure7_small(self):
        series = experiments.figure7_sp2bench_performance(self.CONFIG)
        assert len(series.query_ids) == 4
        assert set(series.times) == {"SparqLog", "Native", "VirtuosoLike"}
        assert series.completed("SparqLog") + series.failures("SparqLog") == 4

    def test_figure8_small(self):
        series = experiments.figure8_gmark_social(self.CONFIG)
        summary = experiments.table7_8_gmark_summary(series)
        assert "SparqLog" in summary
        assert len(series.query_ids) == 4

    def test_figure10_small(self):
        series = experiments.figure10_ontology(self.CONFIG)
        assert set(series.times) == {"SparqLog", "StardogLike"}
        assert series.render()

    def test_feasible_compliance_small(self):
        reports, text = experiments.feasible_sp2bench_compliance(self.CONFIG)
        assert "FEASIBLE" in text
        for report in reports.values():
            counts = report.outcome_counts("SparqLog")
            assert sum(counts.values()) == 4


def test_tier1_asserts_counts_not_clocks():
    """``benchmarks/`` renders the paper's figures and tables and asserts
    shape and answers; elapsed time is measured in one place, ``bench/run.py``
    (``pytest-benchmark``'s ``benchmark`` fixture records and never asserts).
    So no module there may import a clock, and the retired ratio trajectory's
    names may not come back anywhere tier-1 collects."""
    root = Path(__file__).resolve().parent.parent
    # Spelt in halves: a grep for the names finds nothing, this file included.
    retired = ("bench" "_metrics", "REPRO_BENCH" "_JSON", "record" "_trajectory")
    offences = []
    for path in sorted([*root.glob("benchmarks/*.py"), *root.glob("tests/*.py")]):
        source = path.read_text(encoding="utf-8")
        offences += [f"{path.name}: {name}" for name in retired if name in source]
        if path.parent.name != "benchmarks":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
                offences += [
                    f"{path.name}: imports {name}"
                    for name in names
                    if name.split(".")[0] == "time" or name == "perf_counter"
                ]
    assert offences == []


def test_imports_point_one_way_and_modules_stay_small():
    """The layering of ``src/repro`` as the code states it: the module import
    graph — every ``import`` statement, at any nesting level, ``TYPE_CHECKING``
    blocks included — has no cycle, no module is over 1 000 lines, the Datalog
    engine and T_S stay clear of the SPARQL physical layer and evaluator, and
    no module reaches into another for the private names a cycle used to hide."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    sources = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(package.parent).with_suffix("").parts
        sources[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    # (module, name) that may only be spelt inside ``module`` itself.
    private = {
        ("plan", "_match_path"),
        ("idpaths", "_ABSENT"),
        ("idexec", "_FREE"),
        ("physical", "_condition_label"),
    }
    offences = []
    imports = {module: set() for module in sources}
    for module, path in sources.items():
        source = path.read_text(encoding="utf-8")
        lines = source.count("\n")
        if lines > 1000:
            offences.append(f"{module}: {lines} lines")
        package_of = module if path.name == "__init__.py" else module.rpartition(".")[0]
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                targets = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                # ``from ..x import y`` counts from the package the module is in.
                above = package_of.split(".")[: len(package_of.split(".")) + 1 - node.level]
                origin = ".".join([*(above if node.level else []), *filter(None, [node.module])])
                targets = [(origin, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if (node.value.id, node.attr) in private:
                    offences.append(f"{module}: {node.value.id}.{node.attr}")
                continue
            else:
                continue
            for origin, name in targets:
                if (origin.rpartition(".")[2], name) in private:
                    offences.append(f"{module}: imports {name} from {origin}")
                # ``from package import submodule`` is an import of the submodule.
                target = f"{origin}.{name}" if f"{origin}.{name}" in sources else origin
                if target in sources and target != module:
                    imports[module].add(target)
    for module, targets in imports.items():
        if module.startswith("repro.datalog") or module == "repro.core.solution_translation":
            offences += [
                f"{module}: imports {target}"
                for target in sorted(targets & {"repro.sparql.physical", "repro.sparql.evaluator"})
            ]

    def reachable(start):
        seen, stack = set(), [start]
        while stack:
            for target in imports[stack.pop()] - seen:
                seen.add(target)
                stack.append(target)
        return seen

    reach = {module: reachable(module) for module in imports}
    cycles = {
        tuple(sorted(other for other in reach[module] if module in reach[other]))
        for module in imports
        if module in reach[module]
    }
    offences += [f"import cycle: {', '.join(cycle)}" for cycle in sorted(cycles)]
    assert offences == []


#: What a literal-equality or numeric key is made of: a literal's parts, the
#: datatype sets and structure of the key rule, the rule itself.
_KEY_INGREDIENTS = {
    "lexical", "datatype", "language", "effective_datatype", "is_numeric", "as_python",
    "NUMERIC_DATATYPE_VALUES", "XSD_STRING", "term_structure", "comparison_key", "numeric",
}


def test_both_engines_share_one_equality_key():
    """``comparison_key`` is defined once, in ``sparql/kernels.py``; no module
    of ``datalog/`` reads what a key of its own would be computed from, and
    the value table takes its keys from the kernels' rule."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    trees = {
        path.relative_to(package).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(package.rglob("*.py"))
    }
    defining = [
        name
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "comparison_key"
    ]
    assert defining == ["sparql/kernels.py"]
    offences = []
    for name, tree in trees.items():
        if not name.startswith("datalog/"):
            continue
        for node in ast.walk(tree):
            spelt = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if spelt in _KEY_INGREDIENTS:
                offences.append(f"{name}:{node.lineno}: {spelt}")
    assert offences == []
    imported = {
        (node.module, alias.name)
        for node in ast.walk(trees["datalog/values.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert ("repro.sparql.kernels", "equality_key") in imported


def test_the_fixpoint_inserts_rows_in_batches_only():
    """Derived rows reach a relation one batch at a time: ``datalog/steps.py``
    and ``datalog/engine.py`` define no per-row insertion (``emit``,
    ``emit_and_keep``, ``_count_fact``), and ``Relation`` has no ``add``:
    ``Relation.merge`` is the one way in."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro" / "datalog"
    offences = []
    for name in ("steps.py", "engine.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in (
                "emit", "emit_and_keep", "_count_fact"
            ):
                offences.append(f"{name}:{node.lineno}: def {node.name}")
            if isinstance(node, ast.ClassDef) and node.name == "Relation":
                offences += [
                    f"{name}:{method.lineno}: Relation.{method.name}"
                    for method in node.body
                    if isinstance(method, ast.FunctionDef) and method.name == "add"
                ]
    assert offences == []


def test_pipelines_and_filter_placement_are_decided_in_one_place():
    """What runs as a pipeline and where a FILTER conjunct goes is the
    evaluation-tree pass's decision alone (``repro.sparql.evaltree``): beside
    it only the evaluator reads ``use_planner``, to pick the substrate — the
    store check and the path procedure.  No other ``use_*`` switch is read
    anywhere, the lowering pass (and so the plan-cache key) takes no
    profile, and the profile has its
    one field and two presets."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    readers = {}
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).with_suffix("").as_posix().replace("/", ".")
        if module == "sparql.profile":  # the profile naming itself reads nothing
            continue
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.Attribute) and node.attr.startswith("use_"):
                    readers.setdefault(node.attr, set()).add(f"{module}.{function.name}")
    assert readers == {
        "use_planner": {
            "sparql.evaltree.prepare_query",
            "sparql.evaluator._active",
            "sparql.evaluator._eval_path_pattern",
        },
    }

    import inspect
    from dataclasses import fields

    from repro.sparql import physical
    from repro.sparql.evaluator import SparqlEvaluator
    from repro.sparql.profile import ExecutionProfile

    for lowering in (physical.lower_plan, physical.lower_bgp, SparqlEvaluator._lower_fresh):
        assert "profile" not in inspect.signature(lowering).parameters, lowering.__name__
    assert [field.name for field in fields(ExecutionProfile)] == ["use_planner"]
    presets = [name for name, value in vars(ExecutionProfile).items() if isinstance(value, ExecutionProfile)]
    assert sorted(presets) == ["FULL", "NAIVE"]


def test_the_native_engine_has_one_row_space():
    """Planned evaluation runs on the encoded store's ids only: no module of
    the SPARQL or view layers asks which store it got (``is_id_store``) or
    builds a key space of terms (``"term"``), so a second row space cannot
    grow back beside the first."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    offences = []
    for path in sorted([*package.glob("sparql/*.py"), *package.glob("ivm/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rpartition(".")[2] for alias in node.names]
                offences += [f"{path.name}: imports is_id_store" for name in names if name == "is_id_store"]
            elif isinstance(node, ast.Call):
                called = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", "")
                if called in ("key_space", "KeySpace") or any(
                    isinstance(argument, ast.Constant) and argument.value == "term"
                    for argument in node.args
                ):
                    offences.append(f"{path.name}:{node.lineno}: builds a term key space")
    assert offences == []


def test_the_native_engine_holds_one_row_shape():
    """From the executor to the result a solution is a tuple of terms under a
    header: the walk, the modifier tail, the planner, the ALP oracle and the
    FILTER kernels neither import nor name ``Binding``, the public per-row
    view a result builds on request."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro" / "sparql"
    offences = [
        f"{name}.py"
        for name in ("evaluator", "modifiers", "plan", "alp", "kernels")
        if "Binding" in (package / f"{name}.py").read_text(encoding="utf-8")
    ]
    assert offences == []


def test_only_the_skolem_generator_marks_tuple_ids():
    """A :class:`TupleIdExpr` may be renamed by ``optimise.trim``, so only
    ``SkolemFunctionGenerator.tuple_id_assignment`` (``core/skolem.py``) may
    make one: no other module of ``src/repro`` calls the class by name (the
    rewrites rebuild a marked expression through ``type(expression)``)."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    makers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                function = node.func
                if isinstance(function, ast.Attribute):
                    called = function.attr
                else:
                    called = getattr(function, "id", "")
                if called == "TupleIdExpr":
                    makers.add(path.relative_to(package).as_posix())
    assert makers == {"core/skolem.py"}


def test_the_fixpoint_builds_no_skolem_term():
    """The fixpoint stores a tuple ID or labelled null as an interned id
    (``datalog/values.py``), and a :class:`SkolemTerm` is built only when
    the value table decodes one: no other module of ``src/repro/datalog``
    calls the class, so a per-row object cannot come back."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro" / "datalog"
    makers = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                function = node.func
                if isinstance(function, ast.Attribute):
                    called = function.attr
                else:
                    called = getattr(function, "id", "")
                if called == "SkolemTerm":
                    makers.add(path.relative_to(package).as_posix())
    assert makers == {"values.py"}


def test_expressions_are_compiled_not_walked_per_row():
    """An expression runs as the closure its operator compiled once
    (``expressions.compile_expression`` / ``compile_condition``): outside
    ``sparql/expressions.py`` no module of ``src/repro`` imports the
    one-shot wrappers ``evaluate`` / ``satisfies`` or a row view to feed
    them, so a per-row evaluation cannot come back."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    banned = {"evaluate", "satisfies", "RowView"}
    offences = []
    for path in sorted(package.rglob("*.py")):
        if path.relative_to(package).as_posix() == "sparql/expressions.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                offences += [
                    f"{path.relative_to(package)}:{node.lineno}: imports {alias.name}"
                    for alias in node.names
                    if alias.name in banned
                ]
            elif isinstance(node, ast.Attribute) and node.attr in banned and (
                isinstance(node.value, ast.Name) and node.value.id in ("expressions", "solutions")
            ):
                offences.append(f"{path.relative_to(package)}:{node.lineno}: {node.value.id}.{node.attr}")
    assert offences == []


def test_property_paths_are_evaluated_set_at_a_time():
    """Every operator of ``sparql/idpaths.py`` returns its whole extension
    as one collection: the module defines no generator function (no
    ``yield`` / ``yield from``), so a chain of per-pair generators cannot
    come back.  And the SPARQL layer reads the store through its public id
    surface: no module of ``src/repro/sparql`` names an index attribute of
    ``EncodedGraph`` (``_spo``, ``_pos``, ``_osp``)."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro" / "sparql"
    paths = sorted(package.glob("*.py"))
    assert package / "idpaths.py" in paths
    offences = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if path.name == "idpaths.py" and isinstance(node, (ast.Yield, ast.YieldFrom)):
                offences.append(f"{path.name}:{node.lineno}: yields")
            elif isinstance(node, ast.Attribute) and node.attr in ("_spo", "_pos", "_osp"):
                offences.append(f"{path.name}:{node.lineno}: reads {node.attr}")
    assert offences == []


def test_value_semantics_live_in_one_module():
    """Aggregates and the numeric type rule are ``sparql/functions.py``'s:
    outside it (and the tokenizer and parser, which read the keywords) no
    module of ``src/repro`` holds the constant ``"SUM"`` or ``"AVG"``, so a
    second aggregate implementation cannot come back; ``src/repro/datalog``
    defines no function named like an aggregate; and ``functions.py``
    does not call Python's half-to-even ``round`` — ``ROUND`` and
    ``SUBSTR`` share ``fn:round`` (``_xpath_round``)."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    readers = {"sparql/functions.py", "sparql/tokenizer.py", "sparql/parser.py"}
    offences = []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in ("SUM", "AVG"):
                if name not in readers:
                    offences.append(f"{name}:{node.lineno}: {node.value!r}")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if name.startswith("datalog/") and node.name.strip("_") in (
                    "aggregate", "evaluate_aggregate", "compute_aggregate"
                ):
                    offences.append(f"{name}:{node.lineno}: defines {node.name}")
            elif isinstance(node, ast.Name) and node.id == "round":
                if name == "sparql/functions.py":
                    offences.append(f"{name}:{node.lineno}: uses round")
    assert offences == []


def test_one_native_entry_point():
    """The native engine is built in one place: no module of ``src/repro``
    but ``engine.py`` calls ``SparqlEvaluator(``, so a baseline holds an
    :class:`~repro.engine.Engine` instead of a fresh evaluator per query;
    no module but ``harness/timing.py`` calls ``call_with_timeout``, the
    compliance runner and the experiment drivers run a query through
    ``budgeted_call``; and the retired engine classes do not come back."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    callers = {"SparqlEvaluator": "engine.py", "call_with_timeout": "harness/timing.py"}
    offences = []
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if called in callers and callers[called] != name:
                    offences.append(f"{name}:{node.lineno}: calls {called}")
            elif isinstance(node, ast.ClassDef) and node.name in (
                "SparqlEngine", "NativeSparqlEngine"
            ):
                offences.append(f"{name}:{node.lineno}: class {node.name}")
    assert offences == []


def test_the_native_engine_keeps_only_the_entries_its_callers_use():
    """No caller passes an initial binding to the executor or a second graph
    to the live views, so neither entry exists: ``execute_rows``,
    ``idexec.run`` and ``row_header`` take no ``initial`` / ``domain``, the
    ``materialize`` methods no ``graph``, and the leapfrog membership level
    and the per-graph view evaluator are gone."""
    package = Path(__file__).resolve().parent.parent / "src" / "repro"
    removed = {
        "sparql/physical.py": {"execute_rows": {"initial", "domain"}},
        "sparql/idexec.py": {
            "run": {"initial", "domain"},
            "_compile": {"initial", "domain"},
            "row_header": {"initial", "domain"},
        },
        "engine.py": {"materialize": {"graph"}},
        "ivm/views.py": {"materialize": {"graph"}},
    }
    gone = {"sparql/leapfrog.py": "_member_level", "ivm/views.py": "_state_evaluator"}
    offences = []
    for name in sorted(set(removed) | set(gone)):
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == gone.get(name):
                offences.append(f"{name}:{node.lineno}: defines {node.name}")
            if isinstance(node, ast.FunctionDef) and node.name in removed.get(name, {}):
                arguments = node.args.args + node.args.kwonlyargs
                for argument in arguments:
                    if argument.arg in removed[name][node.name]:
                        offences.append(f"{name}:{node.lineno}: {node.name}({argument.arg}=)")
    assert offences == []


def test_every_definition_under_src_is_named_somewhere():
    """Every function, method and class of ``src/repro`` is named outside its
    own definition somewhere in ``src/``, ``tests/``, ``bench/``,
    ``benchmarks/`` or ``examples/``: as a name, an attribute, an imported
    name or a string that is exactly the name (``getattr`` and
    ``monkeypatch.setattr`` targets).  A package ``__init__``'s imports and
    ``__all__`` are re-exports and do not count.  Dunder methods are the
    language's to call."""
    root = Path(__file__).resolve().parent.parent
    package = root / "src" / "repro"
    named = set()
    for tree in ("src", "tests", "bench", "benchmarks", "examples"):
        for path in (root / tree).rglob("*.py"):
            reexports = path.name == "__init__.py" and package in path.parents
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif reexports:
                    continue
                elif isinstance(node, ast.alias):
                    named.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    named.add(node.value)
    unnamed = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and node.name not in named:
                    unnamed.append(f"{path.relative_to(package)}:{node.lineno}: {node.name}")
    assert unnamed == []
