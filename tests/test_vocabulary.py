"""One name per node: the library and its tests use `lmu`'s names.

`lmucheck.terms` gives second names to `lmu` objects for the benchmark under
`perfbench/` alone. These checks read sources and run none of them: no
other module may import `terms`, and `terms` keeps exactly the aliases the
benchmark reads, each the `lmu` object it names. The traced-benchmark test
runs only workloads that never build a term, so a dropped alias would
otherwise first fail in a `term-eval` benchmark run.
"""

import ast
import importlib
from pathlib import Path

from lmucheck import lmu

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lmucheck"

# alias in `terms` -> the `lmu` name it stands for
ALIASES = {
    "Term": "Lmu",
    "TVar": "Var",
    "TScalar": "Scalar",
    "TJoin": "Join",
    "TMeet": "Meet",
    "TOPlus": "OPlus",
    "TOTimes": "OTimes",
    "TMu": "Mu",
    "TNu": "Nu",
    "tconst": "constant",
    "render_term": "render_lmu",
}


def imports_terms(tree: ast.AST) -> bool:
    """Whether a module imports `lmucheck.terms` in any spelling, relative
    imports read as inside the `lmucheck` package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name == "lmucheck.terms" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = f"lmucheck.{base}" if base else "lmucheck"
            if base == "lmucheck.terms":
                return True
            if base == "lmucheck" and any(a.name == "terms" for a in node.names):
                return True
    return False


def test_imports_terms_sees_every_spelling():
    for source in (
        "from . import lmu, terms",
        "from .terms import TMu",
        "from lmucheck import terms",
        "from lmucheck.terms import tconst",
        "import lmucheck.terms",
        "def f():\n    from lmucheck import terms",
    ):
        assert imports_terms(ast.parse(source)), source
    for source in ("from . import lmu", "from lmucheck import lmu", "import lmucheck"):
        assert not imports_terms(ast.parse(source)), source


def test_library_and_tests_do_not_import_terms():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "terms.py"]
    sources += (ROOT / "tests").glob("*.py")
    offenders = [
        str(p.relative_to(ROOT)) for p in sources if imports_terms(ast.parse(p.read_text(), str(p)))
    ]
    assert offenders == []


def test_terms_keeps_exactly_the_benchmark_aliases():
    used = set()
    for path in (ROOT / "perfbench").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "terms":
                    used.add(node.attr)
    # imported by module name, so that this file stays outside the rule above
    terms = importlib.import_module("lmucheck.terms")
    assert used == set(terms.__all__) == set(ALIASES)
    for alias, name in ALIASES.items():
        assert getattr(terms, alias) is getattr(lmu, name), alias


def test_every_export_resolves():
    # a deleted function cannot leave its name behind in an `__all__`
    stale = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "lmucheck" if path.stem == "__init__" else f"lmucheck.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{n}" for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []
