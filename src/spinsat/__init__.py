"""CNF-to-Ising compilation, seeded simulated annealing, and observable analysis.

The package exports its submodules only; call their functions qualified,
e.g. ``spinsat.ising.compile`` and ``spinsat.anneal.anneal``.
"""

__version__ = "0.1.0"

from . import analysis, anneal, cli, cnf, ising, satcore
