"""Unit tests for the exception hierarchy.

A caller catching :class:`ReproError` must catch everything the library
raises; the layer-specific bases must partition the subclasses sensibly.
"""

import inspect

import pytest

from repro import exceptions


def all_exception_classes():
    return [
        obj
        for _, obj in inspect.getmembers(exceptions, inspect.isclass)
        if issubclass(obj, Exception) and obj.__module__ == "repro.exceptions"
    ]


def test_everything_derives_from_repro_error():
    for cls in all_exception_classes():
        assert issubclass(cls, exceptions.ReproError), cls


@pytest.mark.parametrize(
    "child,parent",
    [
        (exceptions.MalformedWorkflowError, exceptions.WorkflowError),
        (exceptions.UnknownOperationError, exceptions.WorkflowError),
        (exceptions.DuplicateOperationError, exceptions.WorkflowError),
        (exceptions.DuplicateTransitionError, exceptions.WorkflowError),
        (exceptions.UnknownServerError, exceptions.NetworkError),
        (exceptions.DuplicateServerError, exceptions.NetworkError),
        (exceptions.DisconnectedNetworkError, exceptions.NetworkError),
        (exceptions.IncompleteMappingError, exceptions.DeploymentError),
        (exceptions.UnsupportedTopologyError, exceptions.AlgorithmError),
        (exceptions.SearchSpaceTooLargeError, exceptions.AlgorithmError),
    ],
)
def test_layer_hierarchy(child, parent):
    assert issubclass(child, parent)


def test_codec_error_is_a_repro_error():
    from repro.io.json_codec import CodecError

    assert issubclass(CodecError, exceptions.ReproError)


def test_catching_base_catches_library_raises(line3, bus3):
    """End-to-end: a representative raise from each layer is caught."""
    from repro.core.mapping import Deployment
    from repro.core.cost import CostModel

    with pytest.raises(exceptions.ReproError):
        line3.operation("nope")
    with pytest.raises(exceptions.ReproError):
        bus3.server("nope")
    with pytest.raises(exceptions.ReproError):
        CostModel(line3, bus3).loads(Deployment())
