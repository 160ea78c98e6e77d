"""Rooted maximum leaf outbranchings.

Kernelization by safe reduction rules, root-to-root numberings, constructive
leaf-count lower bounds, a factor-92 approximation pipeline, and an
exhaustive oracle for desk-scale verification.

The package namespace holds the entry points and the error types; the
building blocks live in the submodules (`maxleaf.digraph`, `maxleaf.reduce`,
`maxleaf.bounds`, `maxleaf.stnum`, ...).
"""

from .digraph import Outbranching, RootedDigraph, build, verify_outbranching
from .errors import (GraphFormatError, InfeasibleError, InternalInvariantError,
                     PreconditionError)
from .exact import maxleaf_exact
from .gen import GenSpec, gen_random, generate
from .reduce import decide, kernelize, lift
from .approx import approximate, approximate_each_root, sqrt_opt_tree

__version__ = "0.1.0"
