"""README's Python examples run as written, and its `train` flag list names
the settings the code reads."""

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
    listed = re.search(r"one flag per `TrainConfig`\s+field:\s(.*?);", README.read_text(), re.S)
    assert listed, "README's train flag list is missing"
    flags = re.findall(r"`--([\w-]+)`", listed.group(1))
    assert flags == [name.replace("_", "-") for name in TrainConfig().to_dict()]
