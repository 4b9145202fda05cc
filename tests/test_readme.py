"""The README's library quick start runs as written and prints what it says."""
import re
from pathlib import Path

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
