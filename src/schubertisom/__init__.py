"""Exact tools for the isomorphism problem of Kac-Moody Schubert varieties.

Decides Cartan equivalence of pairs (w, A), computes integral cohomology
rings on the Schubert basis via the Chevalley formula, reconstructs a
presentation from cohomology data alone, and enumerates isomorphism
classes within a flag variety.
"""

from .cartan import (
    CartanMatrix,
    IndexSet,
    SimpleCoxeterGraph,
    diagram_automorphisms,
    graph_automorphisms,
    simple_graph,
    submatrix,
    validate_cartan,
)
from .cohomology import (
    CohomologyOracle,
    SchubertClass,
    chevalley_product,
    export_oracle,
    export_oracle_with_map,
    simple_square_closed_form,
    support_closure,
)
from .equivalence import (
    EquivalenceWitness,
    canonical_key,
    check_equivalence,
    isom_classes,
    restriction_witness,
    transport_interval,
)
from .freealg import FreeAlgebraElement, Poly, depends_on, eta, specialize
from .reconstruct import ReconstructedPresentation, reconstruct, recover_cartan
from .weyl import (
    BruhatInterval,
    Reflection,
    WeylElement,
    bruhat_leq,
    cover_reflection,
    element_from_word,
    enumerate_elements,
    interval,
    inversion_set,
    support,
    two_letter_leq,
)

__version__ = "0.1.0"
