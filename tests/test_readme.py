"""The README's library example runs, and every value it annotates holds.

Each expression statement of the ```python block with a trailing
``# value`` comment is checked: the comment's text before any ``": "`` is
evaluated in the example's namespace and must equal the expression.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example_values():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) == 1
    source = blocks[0]
    comments = {
        tok.start[0]: tok.string[1:].strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace, checked = {}, 0
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            expected = eval(comments[stmt.end_lineno].split(": ")[0], namespace)
            assert value == expected, ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 6
