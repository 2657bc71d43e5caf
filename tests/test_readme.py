"""The README's examples run as written against the package, and its tables
name the fields and defaults of the records they document."""

import dataclasses
import pathlib
import re

import mittag_kinetics
from mittag_kinetics.cli import main
from mittag_kinetics.laplace import DESCRIPTOR_KINDS

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    fence = f"```{lang}\n"
    return [part.split("```", 1)[0] for part in README.split(fence)[1:]]


def test_python_examples_run():
    # one namespace: later examples use names an earlier one defined
    blocks = _blocks("python")
    assert blocks
    namespace: dict = {}
    for code in blocks:
        exec(compile(code, "README.md", "exec"), namespace)


def test_cli_example_table(tmp_path, monkeypatch, capsys):
    block = next(b for b in _blocks("sh") if "$ cat relax.json\n" in b)
    spec, table = block.split("$ cat relax.json\n", 1)[1].split(
        "$ mittag-kinetics solve-kinetic --spec relax.json\n")
    (tmp_path / "relax.json").write_text(spec, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["solve-kinetic", "--spec", "relax.json"]) == 0
    assert capsys.readouterr().out == table


def _documented_fields(text: str) -> dict[str, str | None]:
    """``{field: default}`` from README text such as "`nu`, `mu` [1]"."""
    fields = {}
    for item in text.split(","):
        name, *default = item.split(maxsplit=1)
        fields[name.strip("`")] = default[0].strip("[]") if default else None
    return fields


def _readme_default(value) -> str | None:
    """A dataclass default written the way the README writes it."""
    if value is dataclasses.MISSING:
        return None
    if value is None:
        return "none"
    if value == ():
        return ""
    return f"{value:g}"


def _record_fields(cls, given=()) -> dict[str, str | None]:
    return {f.name: _readme_default(f.default) for f in dataclasses.fields(cls)
            if f.name not in given}


def test_task_table_matches_record_fields():
    # each row "| task | `Record`: `field` [default], ...; note | extra keys |";
    # rd-solve's times come from the grid, not from parameters
    given = {"RDProblem": ("times",)}
    rows = [line.split(" | ")[1] for line in README.splitlines()
            if line.startswith("| `") and "`: `" in line]
    assert len(rows) == 5
    for cell in rows:
        records, fields = cell.split(": ", 1)
        documented = _documented_fields(fields.split(";")[0])
        for name in re.findall(r"`(\w+)`", records):
            cls = getattr(mittag_kinetics, name)
            assert documented == _record_fields(cls, given.get(name, ())), name


def test_descriptor_list_matches_record_fields():
    text = README.split("The descriptor kinds and their fields are ", 1)[1].split(".", 1)[0]
    kinds = re.findall(r"`(\w+)` \(([^)]*)\)", text)
    assert [name for name, _ in kinds] == [
        "GammaPower", "LaplaceDensity", "ResidualProduct", "MLBasic", "MLGeneral",
        "TwoRateProduct"]
    for name, fields in kinds:
        assert _documented_fields(fields) == _record_fields(DESCRIPTOR_KINDS[name]), name
