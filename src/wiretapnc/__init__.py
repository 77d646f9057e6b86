"""Coset coding and secure linear network codes for wiretap networks of type II.

Each public name loads its submodule on first use (PEP 562), so `import
wiretapnc` runs no submodule and a process compiles only what it uses.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines (a submodule listed in its own
# tuple is public itself)
_EXPORTS = {
    "gf": ("gf", "FieldSpec", "field_new"),
    "fmatrix": ("fmatrix", "FMatrix"),
    "exceptions": ("exceptions",),
    "coset": ("coset", "CosetCode", "gabidulin_parity_check", "is_mds_parity_check",
              "rs_parity_check", "universal_secrecy_check"),
    "netgraph": ("netgraph", "Flow", "Network", "NetworkCode", "butterfly_code",
                 "butterfly_network", "combination_network", "parallel_code", "parallel_network"),
    "securecode": ("securecode", "SecureDesign", "alphabet_bound_general",
                   "alphabet_bound_minimal", "alphabet_bound_two_sources",
                   "byzantine_secrecy_check", "cai_yeung_to_coset", "combination_secure_design",
                   "secure_lif", "verify_secrecy_condition"),
    "equivocation": ("equivocation", "EquivocationReport", "equivocation_rank",
                     "equivocation_restricted_cut", "equivocation_sweep", "equivocation_wtc2",
                     "generalized_hamming_weights", "network_dr_profile", "wei_consistency_check"),
    # the oracle imports numpy
    "oracle": ("CosetChannelOracle", "min_equivocation_bruteforce"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the submodule behind a public name, and keep the name in the
    package globals so that later lookups do not come back here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
