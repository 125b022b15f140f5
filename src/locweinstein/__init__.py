"""Exact cochain-complex calculus for prime-localized Weinstein subdomains.

Submodules:
  intlin     - Smith normal form with inverses, kernels, integer solving
  zcomplex   - bounded free cochain complexes over Z
  decompose  - elementary splitting with certificates
  localize   - prime sets, localized/field homology, classification
  weinstein  - handle presentations and the subdomain lattice
  loopsphere - twisted complexes over Z[u] and the geometricity test
  cli        - command-line front end
"""

__version__ = "0.1.0"

from .intlin import IntMatrix, SnfResult, kernel_basis, snf, solve
from .zcomplex import (ChainMap, FreeComplex, HomologyProfile, cone,
                       direct_sum, elementary_complex, euler_characteristic,
                       homology, shift)
from .decompose import (Decomposition, ElementarySummand,
                        elementary_decomposition, prime_content, reassemble,
                        verify_certificate)
from .localize import (CategoryClass, PrimeSet, category_nontrivial_over,
                       classify_disks, field_homology, localized_homology,
                       quasi_iso)
from .weinstein import (HandlePresentation, SubdomainSpec, embeddable,
                        embedding_witness, lattice_chain, p_handle_disks,
                        replace_handles, subdomain_classify,
                        classify_presentation, induced_spec)
from .loopsphere import (SphereRing, TwistedComplexA, WindowProfile, fiber,
                         from_zcomplex, hom_cohomology, x_action_test,
                         zero_section)

__all__ = [name for name in dir() if not name.startswith("_")]
