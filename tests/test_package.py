"""The package surface agrees with itself and with the README.

A deleted function or module must not leave a stale ``__all__`` entry, a
re-export from ``krylreg/__init__.py``, or a line in the README's layout.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "krylreg"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_name_in_all_exists():
    for stem in MODULES:
        module = importlib.import_module(f"krylreg.{stem}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"krylreg.{stem}.__all__ names missing attributes: {missing}"


def test_package_reexports_only_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        public = importlib.import_module(f"krylreg.{node.module}").__all__
        stray = [alias.name for alias in node.names if alias.name not in public]
        assert not stray, f"krylreg imports {stray} from {node.module}, outside its __all__"


def test_readme_layout_lists_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^  (\w+)\.py\s", block, flags=re.MULTILINE)
    assert sorted(listed) == MODULES
