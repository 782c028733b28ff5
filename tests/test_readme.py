"""The README's library sketch runs as written."""

import ast
import pathlib
import re

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
