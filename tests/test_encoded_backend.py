"""Re-run the Graph and SPARQL evaluator suites over the encoded backend.

Acceptance for the store subsystem: :class:`repro.store.EncodedGraph` is a
drop-in replacement for :class:`repro.rdf.graph.Graph`.  Every test class
of ``tests/test_rdf_graph.py`` and ``tests/test_sparql_evaluator.py`` is
subclassed here and executed with the module-level ``Graph`` name (and the
graph builders in ``tests.helpers``) patched to the encoded backend, so
the exact same assertions run against both storage layers.
"""

import pytest

import tests.helpers as helpers
import tests.test_rdf_graph as graph_suite
import tests.test_sparql_evaluator as evaluator_suite
from repro.store import EncodedGraph


@pytest.fixture(autouse=True, params=["id-native", "decoded"])
def _encoded_backend(request, monkeypatch):
    """Substitute EncodedGraph for Graph in the suites and their helpers.

    Parametrised over both execution pipelines: the default evaluator
    joins planned BGPs over raw dictionary ids (``id-native``), the
    ``decoded`` variant pins the term-space pipeline — so every assertion
    of the evaluator suite doubles as a decoded-vs-id-native differential
    on the encoded backend.
    """
    for module in (graph_suite, evaluator_suite, helpers):
        monkeypatch.setattr(module, "Graph", EncodedGraph)
    if request.param == "decoded":
        reference = evaluator_suite.SparqlEvaluator

        def decoded_evaluator(dataset, **kwargs):
            kwargs.setdefault("profile", helpers.DECODED)
            return reference(dataset, **kwargs)

        monkeypatch.setattr(evaluator_suite, "SparqlEvaluator", decoded_evaluator)
    yield


def _subclass_suites(module, prefix):
    for name, obj in list(vars(module).items()):
        if isinstance(obj, type) and name.startswith("Test"):
            subclass = type(f"{prefix}{name[4:]}", (obj,), {})
            subclass.__module__ = __name__
            globals()[subclass.__name__] = subclass


_subclass_suites(graph_suite, "TestEncodedRdf")
_subclass_suites(evaluator_suite, "TestEncodedSparql")


def test_suites_collected():
    """Guard: the dynamic subclassing actually produced the suites."""
    generated = [name for name in globals() if name.startswith("TestEncoded")]
    assert any(name.startswith("TestEncodedRdf") for name in generated)
    assert any(name.startswith("TestEncodedSparql") for name in generated)
    assert len(generated) >= 8, generated
