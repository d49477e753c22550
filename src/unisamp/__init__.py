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

from .index_core import (
    BraceletClass,
    IndexSet,
    PrimePowerModulus,
    ResidueHistogram,
    act,
    bracelet_canonical,
    bracelet_count,
    chi_star,
    digit_reverse,
    dispersion,
    residue_histogram,
)
from .universality import (
    InfeasibleSizeError,
    MaximalResult,
    MinimalResult,
    NotUniversalError,
    SchurValuation,
    UniversalDecomposition,
    UniversalityVerdict,
    decompose,
    is_universal,
    is_universal_via_chi_star,
    is_universal_via_dispersion,
    maximal_universal,
    minimal_universal,
    schur_valuation,
    universal_subset_of_size,
)
from .counting import (
    BasePExpansion,
    base_p_expansion,
    count_by_brute_force,
    count_universal,
    entropy_curve,
)
from .fourier import (
    RankReport,
    Signal,
    SingularSystemError,
    brute_force_universal,
    condition_report,
    dft_submatrix,
    find_sampling_set,
    interpolate,
    interpolating_basis,
    is_invertible,
)
from .uncertainty import (
    RandomExperimentSummary,
    SupportProfile,
    cauchy_davenport_check,
    random_maximal_experiment,
    random_signal_uncertainty,
    sumset,
    support_profile,
    verify_uncertainty,
)

__version__ = "0.1.0"
