"""Exact-arithmetic invariants of finitely presented local and graded
algebras: jets, isomorphism certificates, deformation-distance intervals,
Hilbert data, quasi-slopes, and graded minimal free resolutions."""

from .artin import (ArtinAlgebra, defpair_jet, hilbert_function, jet,
                    nilpotency_index, socle, socle_dimension)
from .errors import JetMetricError
from .hilbert import (HilbertData, dim_mult, euler_characteristic,
                      hilbert_series, hs_polynomial_from_jets,
                      hs_polynomial_from_series, length_model)
from .iso import (InvariantSignature, IsoVerdict, SearchBudget, Witness,
                  base_change, decide_isomorphism, invariant_signature,
                  verify_witness)
from .metric import (BallDescriptor, DistanceVerdict, ball_descriptor,
                     defpair_distance, jet_distance, limit_jets)
from .presentation import (FamilyTemplate, Presentation, instantiate_template,
                           parse_presentation, print_presentation)
from .resolution import (ClassifyResult, ResolutionData, betti_residue_field,
                         depth_and_classify, minimal_resolution_of_quotient)
from .slopes import (Delta0Value, RhoResult, SlopeTrace, delta0,
                     delta0_at_order, eps0, eps0_at_order, quasi_dimension,
                     rho, round_log2, slope_trace)

__version__ = "0.1.0"

__all__ = [
    "ArtinAlgebra", "BallDescriptor", "ClassifyResult", "Delta0Value",
    "DistanceVerdict", "FamilyTemplate", "HilbertData", "InvariantSignature",
    "IsoVerdict", "JetMetricError", "Presentation",
    "ResolutionData", "RhoResult", "SearchBudget", "SlopeTrace", "Witness",
    "ball_descriptor", "base_change", "betti_residue_field",
    "decide_isomorphism", "defpair_distance", "defpair_jet",
    "delta0", "delta0_at_order", "depth_and_classify", "dim_mult", "eps0",
    "eps0_at_order", "euler_characteristic", "hilbert_function",
    "hilbert_series", "hs_polynomial_from_jets", "hs_polynomial_from_series",
    "instantiate_template", "invariant_signature", "jet", "jet_distance",
    "length_model", "limit_jets", "minimal_resolution_of_quotient",
    "nilpotency_index", "parse_presentation", "print_presentation",
    "quasi_dimension", "rho", "round_log2", "slope_trace", "socle",
    "socle_dimension", "verify_witness",
]
