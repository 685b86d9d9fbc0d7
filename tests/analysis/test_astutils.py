"""ImportTable: a relative import with no module part resolves like one with."""

from __future__ import annotations

import ast

import pytest

from repro.analysis.astutils import ImportTable


@pytest.mark.parametrize(
    "source, local, target",
    [
        ("from .. import kernels", "kernels", "..kernels"),
        ("from . import rng", "rng", ".rng"),
        ("from . import rng as r", "r", ".rng"),
    ],
)
def test_relative_import_without_module_part(source, local, target):
    assert ImportTable(ast.parse(source)).aliases[local] == target


def test_module_and_package_relative_imports_agree():
    """``kernels.get_backend`` means the same function either way."""
    via_package = ImportTable(ast.parse("from .. import kernels"))
    via_module = ImportTable(ast.parse("from ..kernels import get_backend"))
    assert via_package.resolve("kernels.get_backend") == via_module.resolve(
        "get_backend"
    )
