"""No two code objects in ``repro`` share a profile label.

``pstats`` keys every function by ``(file, first line, name)``, so two
code objects with the same label (two comprehensions nested on one
line, say) collapse into one entry: whichever one the table keeps wins
and the other's call count is lost.  Per-layer call counts summed over
those entries then move with memory layout instead of with the code.
On interpreters that inline comprehensions (3.12+) fewer code objects
exist and the check still holds.
"""

from collections import Counter
from pathlib import Path

import pytest

import repro

SOURCE = Path(repro.__file__).resolve().parent


def _code_objects(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _code_objects(const)


@pytest.mark.tier1
def test_no_two_code_objects_share_a_profile_label():
    shared = []
    for path in sorted(SOURCE.rglob("*.py")):
        module = compile(path.read_text(), str(path), "exec")
        labels = Counter((code.co_firstlineno, code.co_name)
                         for code in _code_objects(module))
        shared += [f"{path.relative_to(SOURCE)}:{line} {name} x{count}"
                   for (line, name), count in sorted(labels.items())
                   if count > 1]
    assert not shared, (
        "code objects sharing a (file, line, name) profile label; put "
        "each comprehension or lambda on its own line: "
        + ", ".join(shared))
