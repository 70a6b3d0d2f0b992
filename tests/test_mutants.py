"""The mutation gate's list stays applicable: each mutant of ``tests/mutants.py``
names a text that occurs exactly once in its file of ``src/``."""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_text_occurs_once(mutant):
    source = (ROOT / mutant.file).read_text(encoding="utf-8")
    assert source.count(mutant.text) == 1
    assert mutant.replacement != mutant.text
