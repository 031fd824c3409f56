"""Every dotted ``repro.…`` name the docs and the source text mention
resolves.

README.md, DESIGN.md, the verify notes and every module of
``src/repro`` (docstrings and comments included) name modules,
classes, functions and attributes by dotted path.  A rename or a
deletion that leaves such a name behind points readers at code that
is gone.  Each name resolves when its longest importable module prefix
imports and the rest of it is reached by ``getattr``.  ROADMAP.md,
EXPERIMENTS.md and CHANGES.md name deleted modules as history, so they
are not checked.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: README.md, DESIGN.md and the verify notes (``skills/verify/SKILL.md``
#: in the repo's hidden tooling folder).
DOCS = (
    "README.md",
    "DESIGN.md",
    *sorted(
        str(path.relative_to(ROOT))
        for path in ROOT.glob(".*/skills/verify/SKILL.md")
    ),
)
#: A dotted name rooted at the package, not part of a longer name.
DOTTED = re.compile(r"(?<![\w.])repro(?:\.\w+)+")


def _names(texts) -> set[str]:
    return {name for text in texts for name in DOTTED.findall(text)}


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        break
    for attr in parts[cut:]:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def _sources() -> dict[str, list[str]]:
    sources = {
        doc: [(ROOT / doc).read_text(encoding="utf-8")] for doc in DOCS
    }
    sources["src/repro"] = [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    ]
    return sources


SOURCES = _sources()


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_dotted_names_resolve(source):
    names = _names(SOURCES[source])
    assert names, f"{source} names no repro module"
    unresolved = sorted(name for name in names if not _resolves(name))
    assert not unresolved, f"{source} names missing code: {unresolved}"
