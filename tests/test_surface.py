"""The package ships no public code that only tests reach: every top-level
public function or class in ``src/tabdistill`` is named by code elsewhere in
``src/``, or by the README's library quick start."""

import ast
from pathlib import Path

from helpers import readme_quick_start

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "tabdistill"

# criterion 11 reads it, and the run trace is to record it; the test fails
# once src/ names it, so the exemption goes when it is no longer needed
EXEMPT = ["metrics.generation_correlation_matrix"]


def _names(node: ast.AST) -> set[str]:
    """Every identifier that code in ``node`` reads, calls or imports."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.alias):
            found.add(sub.name.rsplit(".", 1)[-1])
    return found


def test_every_public_definition_is_named_outside_itself():
    definitions = []  # (module, name, the defining statement)
    named_by = []  # (the statement, the names its code uses)
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            named_by.append((stmt, _names(stmt)))
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                definitions.append((module, stmt.name, stmt))
    assert definitions
    outside = _names(ast.parse(readme_quick_start()))
    unused = [f"{module}.{name}" for module, name, stmt in definitions
              if name not in outside
              and not any(name in names for other, names in named_by if other is not stmt)]
    assert unused == EXEMPT
