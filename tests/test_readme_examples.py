"""The README's library examples run as written.

Claims covered:
    - the ```python blocks under `## Library use` run in order, in one
      namespace; an expression statement whose last line ends in `# text`
      has `repr` equal to text, or raises the builtin exception that text
      names, and every other statement just runs
"""

import ast
import builtins
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list[str]:
    section = README.read_text().split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def _comments(source: str) -> dict[int, str]:
    """The text of each line's comment, by line number, without the `#`."""
    return {tok.start[0]: tok.string[1:].strip()
            for tok in tokenize.generate_tokens(io.StringIO(source).readline)
            if tok.type == tokenize.COMMENT}


def _named_exception(text: str):
    named = getattr(builtins, text, None) if text.isidentifier() else None
    return named if isinstance(named, type) and issubclass(named, Exception) else None


def test_library_examples_print_what_their_comments_say():
    blocks = _library_blocks()
    assert blocks
    namespace: dict = {}
    checked = 0
    for block in blocks:
        comments = _comments(block)
        for statement in ast.parse(block).body:
            text = comments.get(statement.end_lineno)
            if not isinstance(statement, ast.Expr) or text is None:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            code = compile(ast.Expression(statement.value), "README.md", "eval")
            source = ast.get_source_segment(block, statement)
            exception = _named_exception(text)
            if exception is not None:
                with pytest.raises(exception):
                    eval(code, namespace)
            else:
                assert repr(eval(code, namespace)) == text, source
            checked += 1
    assert checked
