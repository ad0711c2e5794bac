"""greenmodes: electromagnetic Green tensors, cavity mode expansions, and
the open-system dynamics they drive.

The package implements two quantization routes for the macroscopic field,
a closed-cavity normal-mode expansion and a noise-current (Green-tensor)
formulation, along with the numerical identity checks tying them together
in the lossless limit, plus non-Markovian decay and driven master-equation
solvers built on either route.  Everything is in natural units,
hbar = c = eps0 = kB = 1.
"""

__version__ = "0.1.0"

from .atom import Drive, TwoLevelAtom
from .decay import (
    DecayResult,
    fit_rate_and_shift,
    markov_rate_and_shift,
    solve_volterra,
)
from .greens import (
    BulkClosedForm,
    BulkSommerfeld,
    CavityModeSum,
    ResonanceError,
    bulk_green,
    bulk_green_sommerfeld,
    cavity_green,
    im_green_coincidence,
    wavenumber,
)
from .identities import (
    IdentityReport,
    check_appendix_lossless_limit,
    check_conversion_p1,
    check_magic_formula,
    check_surface_term,
)
from .master import (
    BathCorrelations,
    MasterTrajectory,
    SpectralDensity,
    bath_correlations,
    evolve_master_equation,
    kernel_equivalence_check,
    markov_coefficients,
    spectral_density_lna,
    spectral_density_nmqed,
    thermal_occupation,
)
from .modes import (
    CavityGeometry,
    ModeSet,
    build_pec_box_modes,
    coupling_strengths,
)
from .numerics import (
    ConvergenceError,
    QuadratureSpec,
    TailTruncationWarning,
    integrate_adaptive,
    integrate_pv,
    sommerfeld_radial,
    volterra_march,
)
from .permittivity import (
    ConstantScalar,
    DrudeLorentz,
    PermittivityModel,
)

__all__ = [name for name in dir() if not name.startswith("_")]
