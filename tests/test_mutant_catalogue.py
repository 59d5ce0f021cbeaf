"""tests/mutants.py's catalogue stays runnable: each entry's old text occurs
once in its file, its new text differs, and each selection names a test
that exists.  Running the mutants themselves is off the suite."""

import ast
import os
import re

import pytest

import mutants


def defines(path, names):
    """Whether the module at path defines the nested classes and functions
    names, outermost first."""
    with open(path) as fh:
        scope = ast.parse(fh.read()).body
    for name in names:
        found = [node for node in scope
                 if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name]
        if not found:
            return False
        scope = found[0].body
    return True


def test_names_are_distinct():
    names = [m[0] for m in mutants.MUTANTS]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("name, path, old, new, selection", mutants.MUTANTS, ids=[m[0] for m in mutants.MUTANTS])
def test_entry_applies(name, path, old, new, selection):
    with open(os.path.join(mutants.ROOT, path)) as fh:
        found = fh.read().count(old)
    assert found == 1, "old text found %d times in %s" % (found, path)
    assert new != old
    for node in selection:
        test_file, *names = node.split("::")
        assert os.path.isfile(os.path.join(mutants.ROOT, test_file)), node
        assert defines(os.path.join(mutants.ROOT, test_file), [re.sub(r"\[.*\]$", "", n) for n in names]), node
