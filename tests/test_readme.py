"""The README's library quick start runs as written and prints what it says,
and its list of top-level names is what ``import qsslab`` gives."""
import re
from pathlib import Path
from types import ModuleType

import qsslab

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quick_start(capsys):
    code, scope = _quick_start(), {}
    exec(compile(code, str(README), "exec"), scope)
    p_detect = scope["dist"].p_detect
    assert abs(p_detect - 0.5) <= 1e-12
    # The comment on the print line shows the printed value.
    assert capsys.readouterr().out == f"{p_detect!r}\n" and f"# {p_detect!r}" in code
    assert abs(scope["p"] - p_detect) <= 4 * scope["stderr"]


def test_top_level_names_are_the_documented_ones():
    section = README.read_text(encoding="utf-8").split("### Top-level names", 1)[1]
    documented = set(re.findall(r"`(\w+)`", section.split("\n\nEverything else", 1)[0]))
    public = {name for name in dir(qsslab) if not name.startswith("_")
              and not isinstance(getattr(qsslab, name), ModuleType)}
    assert public == documented
