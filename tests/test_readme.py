"""README's Python examples run as written, and its file formats list the
settings the code reads."""

import re
from pathlib import Path

from swingctl.training import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out == "eval-desk True\n"


def test_readme_lists_every_train_config_field():
    listed = re.search(r"- Train config: .*?\swith any of the fields\s(.*?);", README.read_text(), re.S)
    assert listed, "README's train-config format line is missing"
    assert set(re.findall(r"`(\w+)`", listed.group(1))) == set(TrainConfig().to_dict())
