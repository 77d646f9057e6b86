"""Coset coding and secure linear network codes for wiretap networks of type II."""

__version__ = "0.1.0"

from .gf import FieldSpec, field_new
from .fmatrix import FMatrix
from .coset import (
    CosetCode,
    gabidulin_parity_check,
    is_mds_parity_check,
    rs_parity_check,
    universal_secrecy_check,
)
from .netgraph import (
    Flow,
    Network,
    NetworkCode,
    butterfly_code,
    butterfly_network,
    combination_network,
    parallel_code,
    parallel_network,
)
from .securecode import (
    SecureDesign,
    SecurityParams,
    alphabet_bound_general,
    alphabet_bound_minimal,
    alphabet_bound_two_sources,
    byzantine_secrecy_check,
    cai_yeung_to_coset,
    combination_secure_design,
    projective_line_colors,
    secure_lif,
    verify_secrecy_condition,
)
from .equivocation import (
    EquivocationReport,
    equivocation_rank,
    equivocation_restricted_cut,
    equivocation_sweep,
    equivocation_underestimated,
    equivocation_wtc2,
    generalized_hamming_weights,
    network_dr_profile,
    wei_consistency_check,
)


def __getattr__(name):  # the oracle imports numpy, so it loads on first use
    if name not in ("CosetChannelOracle", "min_equivocation_bruteforce"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle
    return getattr(oracle, name)


__all__ = [name for name in dir() if not name.startswith("_")] + [
    "CosetChannelOracle", "min_equivocation_bruteforce"]
