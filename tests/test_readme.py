"""The README's "Library API" block runs, and each line commented with a Python literal returns it."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# A results file for the block's read_records line, with the held-out
# fields its evaluate_prediction line needs.
RESULTS_CSV = """id,model,dataset,n,labels,t,observed_max_accuracy,heldout_accuracy,heldout_n
r1,olmo,emoji,100,2,10,0.56,0.6,100
r2,olmo,emoji,100,2,10,0.45,0.4,100
r3,falcon,stories,100,2,10,0.70,0.8,100
"""


def library_api_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    return [line for line in block.splitlines() if line.strip()]


def literal(comment: str):
    """The comment's value if it is a whole Python literal, else None."""
    try:
        return (ast.literal_eval(comment),)
    except (ValueError, SyntaxError):
        return None


def test_library_api_lines_return_their_commented_literals(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results.csv").write_text(RESULTS_CSV)
    namespace: dict = {}
    checked = []
    for line in library_api_lines():
        code, _, comment = line.partition("#")
        expected = literal(comment.strip())
        if expected is None:
            exec(code, namespace)
        else:
            assert eval(code, namespace) == expected[0], line
            checked.append(line)
    assert len(checked) >= 5
