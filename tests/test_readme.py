"""The README's code examples hold for the code: its ``python`` block runs
as written, and its ``json`` config block is a valid config."""

import json
import re
from pathlib import Path

from detcalc.cli import parse_config

README = (Path(__file__).parent.parent / "README.md").read_text()


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def test_readme_python_block_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_readme_config_block_parses():
    (block,) = _blocks("json")
    parse_config(json.loads(block))
