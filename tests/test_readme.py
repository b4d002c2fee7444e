"""The README's ``>>>`` examples, run as doctests."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples():
    failed, attempted = doctest.testfile(str(README), module_relative=False)
    assert attempted and not failed
