import argparse
import re
from pathlib import Path

from pemi import cli, experiment

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_tour_runs_as_written(capsys):
    tour = README.read_text(encoding="utf-8").split("## Library tour", 1)[1]
    block = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def _table_names(header: str) -> list[str]:
    """The first-column names of the README table whose first header cell is ``header``."""
    table = README.read_text(encoding="utf-8").split(f"| {header} |", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", table, re.M)


def test_the_config_tables_name_what_a_config_can_reach():
    assert _table_names("rule") == list(experiment._RULES)
    assert _table_names("model") == list(experiment._MODELS)


def test_the_cli_section_lists_the_run_flags():
    """The README's one-line flag list names exactly the flags of ``pemi run``, in the parser's order."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = [s for a in sub.choices["run"]._actions for s in a.option_strings if s not in ("-h", "--help")]
    line = re.search(r"^`pemi run` flags: .*$", README.read_text(encoding="utf-8"), re.M).group(0)
    assert re.findall(r"`(--\w+)`", line) == flags


def test_the_module_table_names_every_module():
    """Each first cell of the README's module table names one or more
    ``pemi.*`` modules; together they are the package's modules."""
    table = README.read_text(encoding="utf-8").split("Key modules:", 1)[1].split("\n\n", 2)[1]
    named = [m for row in re.findall(r"^\| ([^|]*)\|", table, re.M) for m in re.findall(r"`pemi\.(\w+)`", row)]
    modules = sorted(f.stem for f in (ROOT / "src" / "pemi").glob("*.py") if f.stem != "__init__")
    assert sorted(named) == modules
