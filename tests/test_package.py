"""Package-wide constraints that no single module's tests see."""

import ast
import sys
from pathlib import Path

import encwrithe

PACKAGE = Path(encwrithe.__file__).parent


def test_library_imports_only_the_standard_library():
    # the library runs with no third-party packages: every absolute import
    # names a standard-library module, every other import is relative
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 10
    offenders = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                if name.split(".")[0] not in sys.stdlib_module_names:
                    offenders.append(f"{path.relative_to(PACKAGE)}:{node.lineno}: {name}")
    assert offenders == []
