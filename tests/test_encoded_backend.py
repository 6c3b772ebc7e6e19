"""Re-run the Graph and SPARQL evaluator suites over the encoded store.

Acceptance for the store subsystem: :class:`repro.store.EncodedGraph`
implements the :class:`repro.rdf.graph.Graph` surface.  Every test class of
``tests/test_rdf_graph.py`` is subclassed here and executed with its
module-level ``Graph`` name patched to the encoded store, so the exact same
assertions run against both stores.

The evaluator suite, ``tests/test_sparql_evaluator.py``, runs ``FULL`` on
the encoded store itself.  Every test class of it is subclassed here too
and executed under the other planned presets (``ID_NATIVE``, ``BASELINE``)
and the unplanned ``NAIVE`` evaluation, all on the encoded store, so each
of its assertions doubles as a differential of the leapfrog operator, of
FILTER pushdown and of the planner against the oracle reading the encoded
store's term surface.
"""

import pytest

import tests.test_rdf_graph as graph_suite
import tests.test_sparql_evaluator as evaluator_suite
from repro.sparql.profile import ExecutionProfile
from repro.store import EncodedGraph

from tests.helpers import NAIVE


@pytest.fixture(autouse=True)
def _encoded_backend(monkeypatch):
    """Substitute EncodedGraph for Graph in the graph suite."""
    monkeypatch.setattr(graph_suite, "Graph", EncodedGraph)
    yield


class _UnderEachConfiguration:
    """Mixed into the evaluator suite: its evaluators default to a profile
    other than the ``FULL`` it runs under in its own module."""

    @pytest.fixture(
        autouse=True,
        params=[ExecutionProfile.ID_NATIVE, ExecutionProfile.BASELINE, NAIVE],
        ids=["id_native", "baseline", "naive"],
    )
    def _profile(self, request, monkeypatch):
        reference = evaluator_suite.SparqlEvaluator

        def evaluator(dataset, **kwargs):
            kwargs.setdefault("profile", request.param)
            return reference(dataset, **kwargs)

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
