import re
from pathlib import Path

import yaml

from nlspec import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_config_examples_are_valid(tmp_path):
    config, fragment = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "config.yaml"
    path.write_text(config)
    graph, spec = cli.build_domain(cli.load_config(str(path)))
    assert graph.n == spec.width
    path.write_text("functional: {kind: graph_tv}\ncommand: oracle\n" + fragment)
    graph, spec = cli.build_domain(cli.load_config(str(path)))
    assert graph.n == 3 and spec is None


def test_config_example_runs(tmp_path):
    """The example config runs as documented, with no warning, and its flow
    reaches extinction."""
    config = re.findall(r"```yaml\n(.*?)```", README.read_text(), re.S)[0]
    path = tmp_path / "config.yaml"
    path.write_text(config)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--strict", "--output-dir", str(out)]) == 0
    manifest = yaml.safe_load((out / "manifest.yaml").read_text())
    assert manifest["resolved"]["extinction_index"] is not None
