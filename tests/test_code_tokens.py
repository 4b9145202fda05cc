"""The code-token counter CI gates the package's size with."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_tokens", ROOT / "tools" / "code_tokens.py")
code_tokens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_tokens)

SOURCE = '''"""Module docstring."""
import os  # a comment


class A:
    ("Implicitly joined "
     "class docstring.")

    def f(self, x):
        """Docstring."""
        "A second string statement is code."
        return f"{x!r} in {os.sep + f'{x}'}"
'''


def test_counts_code_without_comments_docstrings_or_layout(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    # import os | class A : | def f ( self , x ) : | "..." | return f"..."
    assert code_tokens.code_tokens(str(path)) == 2 + 3 + 8 + 1 + 2


def test_fails_above_the_ceiling(tmp_path, capsys):
    path = tmp_path / "sample.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_tokens.main([str(path), "--ceiling", "16"]) == 0
    assert code_tokens.main([str(path), "--ceiling", "15"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "16 code tokens, over the ceiling of 15"
