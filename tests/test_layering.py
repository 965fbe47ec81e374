"""Layering guard: the MANA core must not import the experiment harness.

``repro.harness`` drives experiments on top of the runtime; a core
module importing it would tie checkpointing to the bench and figure
code.  The scan covers every import statement, including ones inside
functions.
"""

import ast
import os

import repro.mana

MANA_DIR = os.path.dirname(repro.mana.__file__)
FORBIDDEN = "repro.harness"


def _imported_modules(path):
    """Absolute names of every module imported anywhere in ``path``."""
    with open(path) as f:
        tree = ast.parse(f.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative to repro.mana: level 1 is the package itself.
                parts = ["repro", "mana"][: 3 - node.level]
                base = ".".join(parts + ([node.module] if node.module
                                         else []))
            else:
                base = node.module
            yield base
            for alias in node.names:
                yield f"{base}.{alias.name}"


def test_mana_does_not_import_the_harness():
    offenders = []
    for name in sorted(os.listdir(MANA_DIR)):
        if not name.endswith(".py"):
            continue
        for mod in _imported_modules(os.path.join(MANA_DIR, name)):
            if mod == FORBIDDEN or mod.startswith(FORBIDDEN + "."):
                offenders.append(f"{name}: {mod}")
    assert not offenders, offenders


def test_scan_sees_function_level_and_relative_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "def f():\n"
        "    from repro.harness.parallel import TaskPool\n"
        "from ..harness import bench\n"
    )
    mods = set(_imported_modules(str(path)))
    assert "repro.harness.parallel" in mods
    assert "repro.harness.bench" in mods
