"""The README's Python example runs against the package namespace, and
its library tour names only what its modules hold."""
import contextlib
import importlib
import io
import pkgutil
import re
from pathlib import Path

import maxleaf

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks and "from maxleaf import" in blocks[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for code in blocks:
            exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().strip()


def test_readme_tour_names_resolve_on_their_row_module():
    """Every backticked name in a library tour row is a dotted attribute of
    that row's module; one that starts with another module's name, such as
    `stnum.rr_numbering`, is one of the package."""
    modules = {m.name for m in pkgutil.iter_modules(maxleaf.__path__)}
    rows = re.findall(r"^\| `(maxleaf\.\w+)` \|(.*)\|$", README.read_text(), re.M)
    assert {row for row, _ in rows} == {f"maxleaf.{m}" for m in modules - {"__main__"}}
    missing = []
    for row, contents in rows:
        module = importlib.import_module(row)
        for name in re.findall(r"`([^`]+)`", contents):
            parts = name.split(".")
            obj = maxleaf if len(parts) > 1 and parts[0] in modules else module
            for part in parts:
                obj = getattr(obj, part, None)
            if obj is None:
                missing.append(f"{row}: {name}")
    assert not missing
