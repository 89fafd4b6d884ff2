"""README.md's Python examples and CLI lines run as documented."""

import re
import shlex
from pathlib import Path

from qgammakit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["rep"].status == "pass"


def test_readme_cli_lines_run_in_order(tmp_path, monkeypatch, capsys):
    """Each ``qgk`` line of the README's shell blocks, through ``cli.main``,
    exits 0; every report it writes lands in ``tmp_path``."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("qgk ")]
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert "--out" not in argv or "/" not in argv[argv.index("--out") + 1], line
        assert cli.main(argv) == 0, (line, capsys.readouterr())
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv", "report.json"]
