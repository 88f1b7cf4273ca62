"""The reach gate's statement count (tools/reach.py)."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "reach", os.path.join(ROOT, "tools", "reach.py"))
reach = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reach)


def test_statements_skip_docstrings_and_global():
    source = '''"""module docstring"""
import os
_n = 0


def f(x):
    """function docstring"""
    global _n
    if x:
        _n += 1
    return (x +
            1)


class C:
    """class docstring"""
    x = 1
'''
    assert reach.statements(source) == {2, 3, 6, 9, 10, 11, 15, 17}

