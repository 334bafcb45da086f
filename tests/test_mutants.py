"""The mutant list of tools/mutants.py against the source it mutates."""

import importlib.util
import os

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "mutants.py")


def test_every_mutant_text_occurs_once():
    # a mutant whose old text moved or went would mutate nothing and read
    # as a survivor, or would no longer name what it tests
    spec = importlib.util.spec_from_file_location("mutants", _PATH)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.stale() == []
    names = [m[0] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names) == 24
    for name, path, old, new in mutants.MUTANTS:
        assert path.startswith("src/") and old != new, name
