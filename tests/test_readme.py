"""The README's "Library tour" runs as written and gives the answers its
comments state."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_lines():
    text = README.read_text()
    start = text.index("## Library tour")
    block = text[start:].split("```python\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


def test_library_tour():
    """Statements are executed; an expression followed by a comment must
    evaluate to the value the comment shows."""
    namespace = {}
    checked = 0
    for line in tour_lines():
        code, _, comment = line.partition("#")
        code, comment = code.strip(), comment.strip()
        try:
            expr = compile(code, "README", "eval")
        except SyntaxError:
            exec(compile(line, "README", "exec"), namespace)
            continue
        value = eval(expr, namespace)
        if comment:
            assert repr(value) == comment, line
            checked += 1
    assert checked >= 5
