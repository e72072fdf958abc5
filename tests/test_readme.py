"""The README's examples run against the package as it is."""
import json
import re
from pathlib import Path

from uwachan.presets import preset_scenario
from uwachan.scenario import scenario_from_dict

README = Path(__file__).resolve().parent.parent / "README.md"


def only_block(heading: str, language: str) -> str:
    section = README.read_text(encoding="utf-8").split(f"## {heading}", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{language}\n(.*?)```", section, flags=re.DOTALL)
    assert len(blocks) == 1, f"expected one {language} block under {heading}, found {len(blocks)}"
    return blocks[0]


def test_library_use_example_runs():
    exec(compile(only_block("Library use", "python"), str(README), "exec"), {"__name__": "readme_example"})


def test_scenario_file_example_is_the_fig3_preset():
    # The example must load under the strict schema: a removed field would
    # make it fail here rather than in a user's hands.
    assert scenario_from_dict(json.loads(only_block("Scenario files", "json"))) == preset_scenario("fig3")
