"""README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "eval-desk True\n"
