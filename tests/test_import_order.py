"""Every ``repro`` module imports cleanly when it is the first one loaded.

An import cycle can hide behind import order: a module-level import
that closes a cycle only fails when a module on that cycle happens to
be the first of them imported.  Subprocesses import each module in
turn, first, clearing ``repro.*`` from ``sys.modules`` before each
import, so a cycle fails here whichever module starts it.  Two of them
share the modules, since every import reloads most of the package.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

IMPORT_EACH_FIRST = """
import importlib
import sys
import traceback

failed = []
for name in sys.argv[1:]:
    for loaded in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception:
        failed.append(name + "\\n" + traceback.format_exc())
print("\\n".join(failed))
sys.exit(1 if failed else 0)
"""


def _module_names(root: Path) -> list[str]:
    names = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names.append(".".join(parts))
    return names


def test_every_module_imports_first():
    root = Path(repro.__file__).parent
    names = _module_names(root)
    assert "repro" in names and "repro.nn.snn" in names
    env = {**os.environ, "PYTHONPATH": str(root.parent)}
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", IMPORT_EACH_FIRST, *names[half::2]],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        for half in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=600)
        assert proc.returncode == 0, out + err
