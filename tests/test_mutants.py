"""The soundness mutants of tests/mutants.py stay attached to src/: each
mutant's source text occurs exactly once in its file and in no other
module, so a refactor that moves a guarded line must update the list.
The runner itself (`python tests/mutants.py`) is not part of this suite.
"""

import pytest

from mutants import MUTANTS, SRC


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_source_text_occurs_once_in_src(mutant):
    counts = {p.name: p.read_text(encoding="utf-8").count(mutant.source) for p in SRC.glob("*.py")}
    assert counts.pop(mutant.file) == 1
    assert not any(counts.values())
    assert mutant.replacement != mutant.source


def test_names_are_unique():
    names = [m.name for m in MUTANTS]
    assert len(set(names)) == len(names)
