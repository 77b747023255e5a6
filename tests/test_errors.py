"""The refusal vocabulary against the package that uses it."""

from __future__ import annotations

import ast
from pathlib import Path

import chameleon
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
