"""treesec: protection numbers (ranks), security, and extremal constructions
for rooted trees, with exhaustive brute-force verification at desk scale."""

# The package exports the union of the modules' __all__, so each public name
# is declared once, in its own module.
from .builders import *
from .errors import *
from .exhaustive import *
from .formulas import *
from .rewrites import *
from .trees import *

__version__ = "0.1.0"
