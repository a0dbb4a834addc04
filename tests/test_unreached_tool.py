"""``tools/unreached.py``: which function spans count as never called.

The full report runs every example under a profiler and is too slow
for the suite; this checks its span rules on a planted module.
"""

import ast
import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

SOURCE = '''\
class Shape:
    SIDES = 4

    @property
    def area(self):
        return 1

    def grow(self):
        def helper():
            return 2
        return helper()


def unused():
    def inner():
        return 3
    return inner()
'''


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "unreached", REPO / "tools" / "unreached.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spans_of_uncalled_functions():
    tool = load_tool()
    tree = ast.parse(SOURCE)
    # Nothing called: the class body is not a function, a decorated
    # function starts at its decorator, and nested functions sit
    # inside their never-called parent.
    assert tool._unreached(tree, set()) == [
        ("Shape.area", 4, 6), ("Shape.grow", 8, 11), ("unused", 14, 17)]
    # ``grow`` called (its code starts on line 8), ``helper`` not.
    assert tool._unreached(tree, {4, 8, 14}) == [
        ("Shape.grow.helper", 9, 10), ("unused.inner", 15, 16)]
