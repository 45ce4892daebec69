"""Secure lossy source coding with side information at the decoders.

Computes the rate-distortion-equivocation region for finite-alphabet
sources with two-sided side information, classifies side-information
orderings, reproduces the binary BEC/BSC worked example, and simulates
the superposition-binning achievability scheme at small blocklengths.
"""

from .probs import (
    Alphabet,
    ConditionalPmf,
    InvalidArgument,
    JointPmf,
    ParseError,
    ResourceLimit,
    binary_entropy,
    binary_star,
    compose,
    conditional_entropy,
    entropy,
    joint_from,
    mutual_information,
)
from .region import (
    AuxScheme,
    BoundaryCurve,
    RDETuple,
    SearchConfig,
    SecureSource,
    best_reconstruction,
    evaluate_scheme,
    eve_less_noisy_bound,
    less_noisy_bound,
    lossless_region_point,
    sweep_boundary,
)
from .ordering import (
    BecBscParams,
    OrderingVerdict,
    classify_bec_bsc,
    classify_source,
    is_degraded,
    is_more_capable,
    less_noisy_search,
)
from .binary import BinaryScheme, build_source, closed_form, oracle_check, sweep_curve, benchmark_table
from .simulate import Codebook, SimConfig, SimRates, exact_equivocation, run_trials, achievability_rates

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
