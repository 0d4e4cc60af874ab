"""The examples in README.md run and print what they say."""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_example_prints_its_p_value(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Python\n")[1].split("\n## ")[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.S)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out == "0.00042086206416197514\n"
