"""The public surface: exported names resolve and the README example runs."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import tuckersketch

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks ``import *`` and anything that walks the exports
    for info in pkgutil.iter_modules(tuckersketch.__path__):
        mod = importlib.import_module(f"tuckersketch.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"tuckersketch.{info.name}.__all__ lists missing {name!r}"
    # every name the package re-exports resolves and is exported by its module
    tree = ast.parse(Path(tuckersketch.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            mod = importlib.import_module(f"tuckersketch.{node.module}")
            for alias in node.names:
                assert hasattr(tuckersketch, alias.name), alias.name
                assert alias.name in mod.__all__, f"{alias.name} not in tuckersketch.{node.module}.__all__"


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1, "expected one python block in the README"
    exec(compile(blocks[0], "README.md", "exec"), {})
