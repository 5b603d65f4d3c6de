"""The package surface agrees with itself and with the README.

A deleted function or module must not leave a stale ``__all__`` entry, a
re-export from ``krylreg/__init__.py``, a line in the README's layout, or
a name the README's library example uses.
"""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "krylreg"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
TESTS = sorted((ROOT / "tests").glob("test_*.py"))
# test modules named for a topic that spans several source modules
TOPICS = ("acceptance", "inner_bound", "package", "perfbench_smoke", "scripts")
# test modules that keep the name of a module since folded into another, so
# that their test ids hold until one rename changes all of them
OLD_NAMES = {"dct_solve": "inner", "dense_kernels": "solvers"}


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


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    best_k, best_error, interior = capsys.readouterr().out.split()
    assert int(best_k) >= 1 and 0.0 < float(best_error) <= 0.5 and interior == "True"


def test_each_test_module_names_a_module_or_a_topic():
    names = [path.stem.removeprefix("test_") for path in TESTS]
    assert set(OLD_NAMES) <= set(names) and set(OLD_NAMES.values()) <= set(MODULES)
    stray = [name for name in names if name not in MODULES and name not in TOPICS and name not in OLD_NAMES]
    assert not stray, f"tests/test_<name>.py names neither a module of src/krylreg nor a topic: {stray}"


def test_no_test_module_imports_another():
    for path in TESTS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        imported += [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
        assert not [name for name in imported if name and name.startswith("test_")], path.name
