"""The mutation table of ``scripts/mutants.py`` still fits the source: every
mutant's old text occurs exactly once in ``src/``, in the file it names.
No mutant is run here; the script runs them."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))
import mutants  # noqa: E402

SOURCES = {path: path.read_text(encoding="utf-8") for path in sorted((ROOT / "src").rglob("*.py"))}


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_mutant_changes_exactly_one_place_in_src(mutant):
    hits = [(path, text.count(mutant.old)) for path, text in SOURCES.items() if mutant.old in text]
    assert hits == [(ROOT / mutant.path, 1)]
    assert mutant.new != mutant.old and mutant.expect in ("killed", "survives")


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
