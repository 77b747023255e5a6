"""The refusal vocabulary against the package that uses it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import chameleon
from chameleon import errors
from chameleon.errors import RefusalError

SOURCE = Path(chameleon.__file__).parent


def raised_names() -> set[str]:
    """The names of the exceptions in every ``raise`` statement of the package."""
    names = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_exported_refusal_is_raised():
    exported = {name for name, value in vars(chameleon).items()
                if isinstance(value, type) and issubclass(value, RefusalError)
                and value is not RefusalError}
    assert exported
    assert exported - raised_names() == set()


def test_raise_sites_pass_only_declared_fields():
    """Each ``raise`` of a refusal in the package passes keywords that its
    class declares in ``fields``, whether or not a test reaches that raise."""
    classes = {name: value for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, RefusalError)}
    sites = 0
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            func = node.exc.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in classes:
                continue
            sites += 1
            keywords = {keyword.arg for keyword in node.exc.keywords}
            assert keywords <= set(classes[name].fields), (path.name, node.lineno, name)
    assert sites


def test_a_message_alone_leaves_every_field_none():
    exported = [value for value in vars(chameleon).values()
                if isinstance(value, type) and issubclass(value, RefusalError)]
    assert any(cls.fields for cls in exported)
    for cls in exported:
        err = cls("message")
        assert str(err) == "message"
        assert all(getattr(err, name) is None for name in cls.fields), cls


def test_an_undeclared_field_is_a_type_error():
    with pytest.raises(TypeError, match="NotPL has no field index"):
        errors.NotPL("message", index=3)
    assert errors.NotPL("message", witness=(0, 1)).witness == (0, 1)
