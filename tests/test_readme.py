"""The README's library sketch runs as written, and its CLI section lists
every config key the parser takes."""

import ast
import pathlib
import re

from codiscover.cli import _FIELD_PARSERS, _RUN_KEYS
from codiscover.evaluation import STRATEGIES

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_sketch_prints_every_strategy_rate(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = ast.literal_eval(capsys.readouterr().out.strip())
    assert isinstance(printed, dict)
    assert list(printed) == list(STRATEGIES)
    assert all(0.0 <= rate <= 1.0 for rate in printed.values())


def test_readme_lists_every_config_key():
    text = README.read_text(encoding="utf-8")
    for section, parsers in _FIELD_PARSERS.items():
        bullet = re.search(rf"^- `{section}\.`:([^;.]*)[;.]$", text, re.M)
        assert bullet, section
        assert re.findall(r"`(\w+)`", bullet[1]) == list(parsers), section
    others = re.search(r"The other keys are ((?:`[^`]*`|[^`.])*)\.", text)
    assert others
    assert sorted(re.findall(r"`([^`]*)`", others[1])) == sorted(_RUN_KEYS)
