"""Documentation hygiene: every public item carries a docstring, and
every script the live documents name exists."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import repro
from repro.workloads import WORKLOAD_NAMES


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


def test_experiment_tables_match_recorded_results():
    """Every number in an EXPERIMENTS.md results-table row appears on
    that benchmark's lines of the matching ``benchmarks/results`` file
    (the ``## Table 3`` / ``## Figure N`` section names the file)."""
    number = re.compile(r"-?\d+(?:\.\d+)?")
    text = (ROOT / "EXPERIMENTS.md").read_text()
    checked = 0
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        match = re.match(r"(Table|Figure) (\d)", section)
        if match is None:
            continue
        results = ROOT / "benchmarks/results" / (
            f"{match[1].lower()}{match[2]}.txt"
        )
        lines = results.read_text().splitlines()
        for bench, cells in re.findall(
            r"^\| (\w+) \|(.*)\|$", section, flags=re.M
        ):
            if bench not in WORKLOAD_NAMES:
                continue  # the header row
            recorded = {
                value for line in lines if line.split()[:1] == [bench]
                for value in number.findall(line)
            }
            missing = set(number.findall(cells)) - recorded
            assert not missing, f"{results.name} {bench}: {sorted(missing)}"
            checked += 1
    assert checked == 24, f"{checked} results-table rows found, not 4 x 6"
