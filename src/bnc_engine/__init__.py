"""Exact-arithmetic engine for two-faced independence combinatorics.

Submodules: algebra (base-algebra structures and expectations),
partitions (two-sided colourings and the bi-non-crossing lattice),
diagrams (shaded string diagrams and lateral refinement), bimult (the
block-collapse engine), cumulants (partition moments and cumulants),
freeprod (module models and truncated free products), ffb (the
free-free-Boolean construction and its verifiers), render, fixtures,
errors (the fault classes and their exit codes), and cli.
"""

__version__ = "0.1.0"
