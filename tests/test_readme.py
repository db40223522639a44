"""The README's usage block, run as written."""

import json
import re
import shlex
from pathlib import Path

from dgsym.cli import main
from dgsym.params import reference_points

README = Path(__file__).resolve().parents[1] / "README.md"


def usage_commands(text):
    """The argument vectors of every ``dgsym`` line of the ``sh`` block that
    holds them, in order, with continuation lines joined and comments cut."""
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    block = next(b for b in blocks if re.search(r"^dgsym ", b, flags=re.M))
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("dgsym ")]


def test_readme_usage_block_runs(capsys, tmp_path, monkeypatch):
    """Every ``dgsym`` command of the usage block exits 0 in a fresh
    directory holding the README's ``point.json`` and ``sym1c.json``, and
    its stdout is JSON lines."""
    text = README.read_text()
    point_text, sym1c_text = re.findall(r"```json\n(.*?)```", text, flags=re.S)[:2]
    sym1c = reference_points(1)["sym1c"]
    assert json.loads(sym1c_text) == sym1c.to_json_dict()
    monkeypatch.chdir(tmp_path)
    Path("point.json").write_text(point_text)
    sym1c.dump(Path("sym1c.json"))
    commands = usage_commands(text)
    assert len(commands) == 13
    for argv in commands:
        code = main(argv)
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert code == 0 and rows, argv
