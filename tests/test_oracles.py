"""Import boundaries, read from the source by ``ast``: the oracles in
``tests/oracles.py`` share no code with the fast paths they check, and
``filters`` reaches no private ``em`` name but ``_absorb``."""

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


def private_em_names(source: str) -> set[str]:
    """Every private name of ``lrvga.em`` that ``source`` reaches: imported
    from it, absolutely or relatively, or read as an attribute of the
    module, bound by ``import lrvga.em`` or as ``em``."""
    tree = ast.parse(source)
    found, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module, node.level) in (("em", 1), ("lrvga.em", 0)):
                found |= {a.name for a in node.names if a.name.startswith("_")}
            elif (node.module, node.level) in ((None, 1), ("lrvga", 0)):
                aliases |= {a.asname or a.name for a in node.names if a.name == "em"}
        elif isinstance(node, ast.Import):
            aliases |= {a.asname for a in node.names if a.name == "lrvga.em" and a.asname}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") \
                and not node.attr.startswith("__") and ast.unparse(node.value) in aliases | {"lrvga.em"}:
            found.add(node.attr)
    return found


def test_filters_reach_no_private_em_name_but_absorb():
    source = (Path(lrvga.__file__).parent / "filters.py").read_text(encoding="utf-8")
    assert private_em_names(source) <= {"_absorb"}


def test_the_private_name_check_sees_every_route_into_em():
    source = "\n".join([
        "import lrvga.em",
        "import lrvga.em as lem",
        "from . import em",
        "from .em import _BlendTarget, recursive_em_update",
        "from lrvga.em import _cycle_count",
        "from .factor import _cholesky_solve",
        "a = em._rank_k_rows",
        "b = lrvga.em._ROW_BLOCK",
        "c = lem._warm_rows",
        "d = em.__name__",
    ])
    assert private_em_names(source) == {
        "_BlendTarget", "_cycle_count", "_rank_k_rows", "_ROW_BLOCK", "_warm_rows",
    }
