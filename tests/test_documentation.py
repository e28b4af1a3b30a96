"""Documentation hygiene: every public item carries a docstring, and
every script the live documents name exists."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import repro


def _public_items():
    for mod_info in pkgutil.walk_packages(repro.__path__, "repro."):
        if mod_info.name.endswith("__main__"):
            continue
        module = importlib.import_module(mod_info.name)
        yield mod_info.name, module, None
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != mod_info.name:
                continue  # re-export; documented at the definition site
            yield f"{mod_info.name}.{name}", module, obj


def test_every_module_has_a_docstring():
    missing = [
        name for name, module, obj in _public_items()
        if obj is None and not (module.__doc__ or "").strip()
    ]
    assert not missing, f"modules without docstrings: {missing}"


def test_every_public_class_and_function_has_a_docstring():
    missing = [
        name for name, _module, obj in _public_items()
        if obj is not None and not (obj.__doc__ or "").strip()
    ]
    assert not missing, f"public items without docstrings: {missing}"


ROOT = pathlib.Path(repro.__file__).resolve().parents[2]

#: The live documents (CHANGES.md is history and may name retired
#: scripts).
LIVE_DOCS = (
    "README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
    "docs/*.md", "perfbench/README.md", ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml", "src/repro/experiments/__init__.py",
)


def test_referenced_scripts_exist():
    named = {
        (str(doc.relative_to(ROOT)), script)
        for pattern in LIVE_DOCS
        for doc in ROOT.glob(pattern)
        for script in re.findall(
            r"\b(?:benchmarks|perfbench)/[\w/]+\.py", doc.read_text()
        )
    }
    assert named, "no script references found; is the pattern stale?"
    missing = sorted(pair for pair in named if not (ROOT / pair[1]).exists())
    assert not missing, f"documents name missing scripts: {missing}"


def test_docs_exist_and_are_substantial():
    for doc in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        path = ROOT / doc
        assert path.exists(), doc
        assert len(path.read_text()) > 2000, f"{doc} looks like a stub"
