"""treesec: protection numbers (ranks), security, and extremal constructions
for rooted trees, with exhaustive brute-force verification at desk scale."""

# The package exports the union of the modules' __all__, so each public name
# is declared once, in its own module.  The names load on first use (PEP 562),
# so a process that imports one module, as each CLI command does, compiles
# only the modules that one needs.
_MODULES = ("builders", "errors", "exhaustive", "formulas", "rewrites", "trees")
_SUBMODULES = {*_MODULES, "cli"}

# Collation keys of the canonical text, for trees and exhaustive alike, kept
# here because every process loads the package: at every position a closed
# group beats a leaf beats an opening group, so leaves come first and smaller
# subtrees precede larger ones with a common prefix.
_CLOSE_KEY, _LEAF_KEY, _OPEN_KEY = "0", "1", "2"
_KEY_TEXT = str.maketrans("012", ")L(")

__version__ = "0.1.0"


def _load():
    """Bind every module's public names here, once."""
    if "__all__" in globals():
        return
    from importlib import import_module

    names = []
    for module in map(import_module, (f"{__name__}.{m}" for m in _MODULES)):
        names += module.__all__
        globals().update((name, getattr(module, name)) for name in module.__all__)
    globals()["__all__"] = names


def __getattr__(name):
    # ``from . import trees`` asks here before it imports the submodule, so a
    # submodule's or a private name fails at once instead of loading the rest
    if name == "__all__" or not (name.startswith("_") or name in _SUBMODULES):
        _load()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    _load()
    return sorted(globals())
