"""The README's "Library at a glance" block runs as written; it ends in an
assert that a reused EvalReference gives the one-shot report."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library at a glance"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README.name}: Library at a glance", "exec"), {})
