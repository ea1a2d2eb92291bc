"""README's library example runs, its config key lists match the schema,
and every exported name resolves."""

import re
from pathlib import Path

import erfapprox
from erfapprox import harness

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text()
    section = text[text.index("## Library entry points"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    scope = {}
    exec(compile(library_block(), str(README), "exec"), scope)
    assert all(r.verdict == "holds" for r in scope["rows"])


def test_config_key_lists_match_the_schema():
    text = README.read_text()
    section = text[text.index("## Configuration"):]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    listed = {}
    for line in block.splitlines():
        label, keys = line.split(":")
        listed[label] = tuple(k.strip() for k in keys.split(","))
    assert listed == {label: tuple(keys) for label, keys in harness.SCHEMA.items()}


def test_every_exported_name_resolves():
    missing = [name for name in erfapprox.__all__ if not hasattr(erfapprox, name)]
    assert not missing
