import re
from pathlib import Path

import pytest

from subsel.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    # the README's library section names only importable API, used as it runs
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, f"{README}:## Library", "exec"), {})


def test_cli_commands_parse():
    # every subsel command in the README's CLI block, continuation lines
    # joined, parses, and names each flag in full (argparse would accept a
    # prefix of a renamed flag)
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [line.split("#")[0].split() for line in block.replace("\\\n", " ").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["subsel"]]
    assert len(commands) == 6
    parser = build_parser()
    for argv in commands:
        try:
            args = vars(parser.parse_args(argv))
        except SystemExit:
            pytest.fail(f"README command does not parse: subsel {' '.join(argv)}")
        for flag in (word for word in argv if word.startswith("--")):
            assert flag[2:].replace("-", "_") in args, f"{flag} in subsel {argv[0]}"
