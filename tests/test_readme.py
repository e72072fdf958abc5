"""The README's "Library use" example runs against the package as it is."""
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one python block under Library use, found {len(blocks)}"
    return blocks[0]


def test_library_use_example_runs():
    exec(compile(library_use_block(), str(README), "exec"), {"__name__": "readme_example"})
