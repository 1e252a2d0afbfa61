"""README's Python examples run as written, its `train` flag list names the
settings the code reads, its fused-kernel list names the tape's, each with
a linearization, and its node count of an episode's tape is the one an
episode records."""

import re
from pathlib import Path

import numpy as np

from swingctl import tape
from swingctl.tape import Tape
from swingctl.training import TrainConfig, episode_loss
from test_training import fully_active_39

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


def test_readme_lists_every_fused_kernel():
    # the tape's fused kernels are the public functions of its fused-kernel
    # section, and each one's backward rule is built from its linearization
    source = Path(tape.__file__).read_text()
    section = re.search(r"# -+ fused policy kernels\n(.*?)# -+ backward rules", source, re.S)
    kernels = re.findall(r"^def ([a-z]\w*)\(", section.group(1), re.M)
    pattern = r"Each fused kernel is one tape node whose backward\s+rule is its linearization:(.*?)\.\s"
    listed = re.search(pattern, README.read_text(), re.S)
    assert listed, "README's fused-kernel list is missing"
    assert sorted(re.findall(r"`(\w+)`", listed.group(1))) == sorted(kernels)
    for name in kernels:
        assert callable(getattr(getattr(tape, f"_bk_{name}"), "factors", None)), name


def test_readme_episode_node_count_is_the_tape_length(net39, inc39, eq39):
    quoted = re.search(r"a constrained episode's tape holds (\d+) nodes", re.sub(r"\s+", " ", README.read_text()))
    assert quoted, "README's node count of an episode's tape is missing"
    adapter = fully_active_39(net39, inc39, eq39)
    tp = Tape()
    leaves = {k: tp.leaf(np.array(v)) for k, v in adapter.raw.items()}
    episode_loss(adapter, net39, inc39, eq39, leaves, eq39.lam_eq, np.full(39, 0.05), np.tile(net39.p_nom, (10, 1)),
                 None, 40.0, 0.0, 5e-3)
    assert int(quoted.group(1)) == len(tp)
