"""The README's examples run as written against the package."""

import pathlib

from mittag_kinetics.cli import main

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
