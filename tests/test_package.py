"""The package's public surface: exports resolve and errors share one base."""

import dagam
from dagam import errors
from dagam.errors import DagamError


def test_every_export_resolves():
    for name in dagam.__all__:
        assert hasattr(dagam, name), name


def test_every_exported_exception_is_a_dagam_error():
    exported = [getattr(dagam, name) for name in dagam.__all__]
    errors = [obj for obj in exported if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert DagamError in errors
    for cls in errors:
        assert issubclass(cls, DagamError), cls


def test_every_error_class_is_exported():
    defined = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, DagamError)
    }
    assert defined <= set(dagam.__all__)
