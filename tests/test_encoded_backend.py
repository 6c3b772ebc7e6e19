"""Re-run the Graph and SPARQL evaluator suites over the encoded store.

Acceptance for the store subsystem: :class:`repro.store.EncodedGraph`
implements the :class:`repro.rdf.graph.Graph` surface.  Every test class of
``tests/test_rdf_graph.py`` is subclassed here and executed with its
module-level ``Graph`` name patched to the encoded store, so the exact same
assertions run against both stores.

The evaluator suite, ``tests/test_sparql_evaluator.py``, runs ``FULL`` on
the encoded store itself.  Every test class of it is subclassed here too
and executed three more ways, all on the encoded store:

``naive``
    the unplanned ``NAIVE`` evaluation, so each assertion doubles as a
    differential of the planner against the oracle reading the encoded
    store's term surface;
``cached``
    ``FULL``, answering every query twice: the second answer comes from
    the plans the first one lowered (no plan-cache miss) and equals it;
``revalidated``
    as ``cached``, with a write between the two answers that is undone
    before the second (a fresh triple added and removed), so the store's
    version moves while its statistics hold and the cached plans and
    their compiled pipelines are kept across versions.
"""

import pytest

import tests.test_rdf_graph as graph_suite
import tests.test_sparql_evaluator as evaluator_suite
from collections import Counter

from repro.rdf.terms import Triple
from repro.sparql.evaluator import SparqlEvaluator
from repro.sparql.profile import ExecutionProfile
from repro.store import EncodedGraph

from tests.helpers import EX


@pytest.fixture(autouse=True)
def _encoded_backend(monkeypatch):
    """Substitute EncodedGraph for Graph in the graph suite."""
    monkeypatch.setattr(graph_suite, "Graph", EncodedGraph)
    yield


def _write_and_undo(dataset):
    """Move the default graph's version and leave its triples as they were."""
    fresh = Triple(EX.fresh, EX.fresh, EX.fresh)
    dataset.default_graph.add(fresh)
    dataset.default_graph.remove(fresh)


class _AnsweringTwice(SparqlEvaluator):
    """``FULL`` asked every query twice, ``between(dataset)`` in between:
    the second answer must lower no plan afresh and equal the first."""

    between = staticmethod(lambda dataset: None)

    def evaluate(self, query):
        prepared = self.prepare(query)
        first = super().evaluate(prepared)
        misses = self.metrics()["sparql_physical_cache_misses_total"]
        self.between(self.dataset)
        second = super().evaluate(prepared)
        assert self.metrics()["sparql_physical_cache_misses_total"] == misses
        if isinstance(first, bool):
            assert second == first
        else:
            assert Counter(second.rows()) == Counter(first.rows())
        return second


class _Revalidating(_AnsweringTwice):
    between = staticmethod(_write_and_undo)


#: leg id -> how the suite's evaluators are built when it names no profile.
_CONFIGURATIONS = {
    "naive": lambda dataset, **kwargs: SparqlEvaluator(
        dataset, profile=ExecutionProfile.NAIVE, **kwargs
    ),
    "cached": _AnsweringTwice,
    "revalidated": _Revalidating,
}


class _UnderEachConfiguration:
    """Mixed into the evaluator suite: its evaluators are built by one of
    :data:`_CONFIGURATIONS` instead of as the plain ``FULL`` it runs under
    in its own module; an evaluator given a profile (the hash-store
    oracle) is built as given."""

    @pytest.fixture(autouse=True, params=sorted(_CONFIGURATIONS))
    def _profile(self, request, monkeypatch):
        build = _CONFIGURATIONS[request.param]

        def evaluator(dataset, **kwargs):
            if "profile" in kwargs:
                return SparqlEvaluator(dataset, **kwargs)
            return build(dataset, **kwargs)

        monkeypatch.setattr(evaluator_suite, "SparqlEvaluator", evaluator)
        yield


def _subclass_suites(module, prefix, *mixins):
    for name, obj in list(vars(module).items()):
        if isinstance(obj, type) and name.startswith("Test"):
            subclass = type(f"{prefix}{name[4:]}", (obj, *mixins), {})
            subclass.__module__ = __name__
            globals()[subclass.__name__] = subclass


_subclass_suites(graph_suite, "TestEncodedRdf")
_subclass_suites(evaluator_suite, "TestEncodedSparql", _UnderEachConfiguration)


def test_suites_collected():
    """Guard: the dynamic subclassing actually produced the suites."""
    generated = [name for name in globals() if name.startswith("TestEncoded")]
    assert sorted(name for name in generated if name.startswith("TestEncodedRdf")) == [
        "TestEncodedRdfDataset",
        "TestEncodedRdfGraph",
    ]
    assert len([name for name in generated if name.startswith("TestEncodedSparql")]) >= 6, generated
