"""Universal sampling sets for discrete bandlimited signals on Z_N, N = p^M.

A sampling pattern I is universal when samples taken at I determine every
signal whose spectrum is confined to any frequency set of size |I|;
equivalently, every |I| x |I| submatrix of the DFT matrix built from the
rows I is invertible. For prime-power N this package tests universality
through residue multiplicity criteria, constructs maximal / minimal /
prescribed-size universal sets, counts them exactly, interpolates signals
from irregular samples, and verifies the associated additive uncertainty
and sumset bounds. A brute-force Fourier-submatrix rank oracle provides
the independent ground truth at small N.
"""

import importlib

# Each public name and the module that defines it. Names load on first
# access (PEP 562), so the integer-only modules `base` and `counting`
# can be used without importing numpy.
_MODULE_OF = {
    name: module
    for module, names in {
        "base": "InfeasibleSizeError NotUniversalError PrimePowerModulus "
        "SingularSystemError",
        "index_core": "BraceletClass IndexSet ResidueHistogram bracelet_canonical "
        "chi_star dispersion residue_histogram",
        "universality": "MaximalResult MinimalResult SchurValuation "
        "UniversalDecomposition UniversalityVerdict decompose is_universal "
        "is_universal_via_chi_star is_universal_via_dispersion maximal_universal "
        "minimal_universal schur_valuation universal_subset_of_size",
        "counting": "BasePExpansion base_p_expansion bracelet_count "
        "count_by_brute_force count_universal entropy_curve",
        "fourier": "RankReport Signal brute_force_universal condition_report "
        "dft_submatrix interpolate is_invertible",
        "uncertainty": "RandomExperimentSummary SupportProfile "
        "cauchy_davenport_check random_maximal_experiment "
        "random_signal_uncertainty sumset support_profile verify_uncertainty",
    }.items()
    for name in names.split()
}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
