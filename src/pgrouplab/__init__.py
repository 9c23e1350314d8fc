"""pgrouplab: a computational workbench for finite p-groups.

Subpackages cover exact q-combinatorics, the free Lie algebra, explicit
inequality evaluation, linear algebra and orbit counting over F_p, submodule
counting, a Cayley-table group engine with brute-force automorphism groups,
and the twisted random-walk lab.
"""

__version__ = "0.1.0"

from . import bounds, fplin, freelie, guards, qcombin, submod, walk
from . import groups
