"""README examples stay runnable: CLI lines parse, the quick start runs."""

import re
import shlex
from pathlib import Path

from mwisim.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README, re.S)


def _mwisim_commands():
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["mwisim"]:
                yield words[1:]


def test_readme_cli_lines_parse():
    commands = list(_mwisim_commands())
    assert len(commands) >= 6
    parser = build_parser()
    for words in commands:
        parser.parse_args(words)  # a removed flag or choice exits 2


def test_readme_quick_start_runs(capsys):
    (block,) = [b for b in _blocks("python") if "generate(" in b]
    exec(compile(block, "README quick start", "exec"), {})
    assert capsys.readouterr().out
