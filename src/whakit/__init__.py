"""Exact-arithmetic toolkit for quasitriangular weak Hopf algebras.

The package verifies weak Hopf and quasitriangularity axioms on algebras
presented by structure constants, builds the truncated braided category
of modules, transmutes a quasitriangular pair into the braided Hopf
algebra living on the centralizer of the source subalgebra, and realizes
the equivalence between Yetter-Drinfeld modules and comodules over that
braided Hopf algebra, together with both braidings.  Every check is
exact and reports each identity separately, with a witness on failure.
"""

__version__ = "0.1.0"
