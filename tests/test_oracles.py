"""The oracles in ``tests/oracles.py`` share no code with the fast paths
they check."""

import ast
import inspect
from pathlib import Path

import lrvga

FAST_PATHS = ("lrvga.em", "lrvga.filters")


def fast_path_imports(source: str) -> list[str]:
    """Every routine or module of ``lrvga.em`` or ``lrvga.filters`` that
    ``source`` imports. A name imported from the package itself counts by
    the module that defines it, so a re-export hides nothing. Classes pass:
    ``FaPrecision`` and ``GaussianBelief`` are containers, not routines."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith(FAST_PATHS)]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(FAST_PATHS):
                found += [f"{node.module}.{a.name}" for a in node.names]
            elif node.module == "lrvga":
                for a in node.names:
                    obj = getattr(lrvga, a.name)
                    home = obj.__name__ if inspect.ismodule(obj) else getattr(obj, "__module__", "")
                    if not inspect.isclass(obj) and home.startswith(FAST_PATHS):
                        found.append(f"lrvga.{a.name}")
    return found


def test_oracles_import_no_fast_path_routine():
    source = (Path(__file__).parent / "oracles.py").read_text(encoding="utf-8")
    assert fast_path_imports(source) == []


def test_the_import_check_sees_every_route_to_a_fast_path():
    source = "\n".join([
        "import numpy as np",
        "import lrvga.em",
        "from lrvga.filters import lrvga_linear_step",
        "from lrvga import FaPrecision, GaussianBelief, default_inner_loops, em, woodbury_apply",
        "def f():",
        "    from lrvga.em import _rank_k_rows",
    ])
    assert sorted(fast_path_imports(source)) == [
        "lrvga.default_inner_loops", "lrvga.em", "lrvga.em",
        "lrvga.em._rank_k_rows", "lrvga.filters.lrvga_linear_step",
    ]
