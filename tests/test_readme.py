"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_code():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    return code


def test_library_use_example_runs(capsys):
    exec(compile(_library_use_code(), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # The two comparisons the example marks "# True".
    assert printed.count("True") == 2
