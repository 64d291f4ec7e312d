"""The README's "Library use" example runs as written, and its names exist."""

import pkgutil
import re
from pathlib import Path

import memqkd

README = Path(__file__).resolve().parent.parent / "README.md"

#: The package root's public names, as the README's "Public names" lists them.
ROOT_NAMES = [
    "preset_config",
    "RunConfig",
    "MemoryConfig",
    "run_experiment",
    "RunResult",
    "Histogram",
    "sbr_from_histogram",
    "secret_key_rate",
    "binary_entropy",
    "positive_rate_boundary",
]


def _library_use_code():
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    return code


def test_library_use_example_runs(capsys):
    exec(compile(_library_use_code(), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # The two comparisons the example marks "# True".
    assert printed.count("True") == 2


def test_root_exports_are_the_readme_names_and_readme_paths_resolve():
    readme = README.read_text()
    assert memqkd.__all__ == ROOT_NAMES
    for name in ROOT_NAMES:
        assert re.search(rf"\b{name}\b", readme), name
    paths = set(re.findall(r"\bmemqkd(?:\.\w+)+", readme))
    assert paths
    for path in sorted(paths):
        pkgutil.resolve_name(path)
