import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import akcarc

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    # a name left in __all__ after its import went breaks `from akcarc import *`
    missing = [name for name in akcarc.__all__ if not hasattr(akcarc, name)]
    assert missing == []


def public_defs(tree, module):
    """The public module-level functions and classes of a module, and the
    public methods of its classes, as "module.name" or "module.Class.name"."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_")):
                        yield f"{module}.{node.name}.{item.name}", item.name


def referenced_names(tree):
    """Every identifier a module reads: names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def test_every_public_def_has_a_caller():
    # a public name that only tests use is a helper kept for its own tests;
    # the package, its demos and its benchmark are the callers that count
    package = ROOT / "src" / "akcarc"
    defs, used = {}, set()
    for directory in (package, ROOT / "demos", ROOT / "bench"):
        for path in sorted(directory.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            used.update(referenced_names(tree))
            if directory == package:
                defs.update(public_defs(tree, path.stem))
    assert "run_pipeline" in defs.values()
    unused = sorted(qualified for qualified, name in defs.items() if name not in used)
    assert unused == []


@pytest.mark.parametrize("args,code,stdout,stderr", [
    (["run", "--help"], 0, "usage: akcarc run", ""),
    (["run", "--set", "epochs=x"], 2, "", "config error: epochs: "),
], ids=["help", "bad-override"])
def test_python_m_akcarc_runs_the_cli_from_a_checkout(tmp_path, args, code,
                                                       stdout, stderr):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "akcarc"] + args, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code
    assert proc.stdout.startswith(stdout)
    # one config error line, or nothing
    assert proc.stderr.startswith(stderr) and proc.stderr.count("\n") == bool(stderr)
