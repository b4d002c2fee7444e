import pytest

from treesec import exhaustive


@pytest.fixture(autouse=True, scope="module")
def _drop_shape_tables():
    """Drop the memoized shape tables after each test module.

    The tables live for the whole process, and every full cyclic GC pass
    walks them, so a module that builds the 20-leaf tables would slow down
    the allocation-heavy tests of every later module.
    """
    yield
    for table in (exhaustive._blevels, exhaustive._class_levels):
        for leaves in [leaves for leaves in table if leaves != 1]:
            del table[leaves]
    exhaustive._klevels.clear()
