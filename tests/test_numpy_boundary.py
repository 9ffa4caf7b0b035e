"""The numpy boundary: which modules of ``src/repro`` may name numpy.

``repro.vector`` is the kernel library — it imports numpy and hands every
other module vectors of whatever shape is available. The files listed here
are the ones that still reach past it (``import numpy`` or
``vector.numpy_module()``); the list may shrink, and a module joins it only
by a reviewed edit to this file. ``query/operators.py`` left it when
group-by and hash join moved onto the keyed kernel.
"""

import os
import re

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "repro")

NUMPY_FILES = {
    "vector.py",
    "query/expressions.py",
    "compression/bitpack.py",
    "compression/delta.py",
    "compression/rle.py",
    "compression/dictionary.py",
}

_NAMES_NUMPY = re.compile(r"^\s*(import|from)\s+numpy\b|numpy_module\(\)", re.MULTILINE)


def test_only_the_listed_modules_name_numpy():
    found = set()
    for folder, _, names in os.walk(SRC):
        for name in names:
            path = os.path.join(folder, name)
            if name.endswith(".py"):
                with open(path, encoding="utf-8") as f:
                    if _NAMES_NUMPY.search(f.read()):
                        found.add(os.path.relpath(path, SRC).replace(os.sep, "/"))
    assert found == NUMPY_FILES
    assert "query/operators.py" not in found
