"""Exact-arithmetic normed modules over Banach rings, overconvergent
power-series algebras, their localizations, spectra over the integers,
and the max-norm reflection, all with certified rational interval norms.
"""

from .scalars import (
    BanachRing,
    NormValue,
    abs_value,
    integers_archimedean,
    integers_trivial,
    rationals_archimedean,
    rationals_padic,
)
from .normed_core import (
    MAX,
    SUM,
    ModuleMap,
    PresentedModule,
    WeightedFreeModule,
    cokernel,
    operator_norm,
    residue_norm,
    vector_norm,
)
from .series import (
    DaggerPresentation,
    PolyRadius,
    TruncatedSeries,
    base_change,
    cofinality_constant,
    multiply,
    norm_S,
    norm_T,
    polyradius,
    unit_polydisk,
)
from .tensor import TensorElement, tensor_modules, tensor_norm_certified
from .localization import (
    LocalizationSpec,
    koszul_h_check,
    laurent_solve,
    laurent_spec,
    mayer_vietoris,
    present_localization,
    rational_spec,
    weierstrass_spec,
)
from .spectrum import (
    Place,
    SpectrumPoint,
    enumerate_places,
    evaluate_seminorm,
    fiber_sup,
    global_sup,
    shilov_check,
    spectral_via_powers,
)
from .nonarch import (
    check_adjunction,
    pi_free,
    pi_tensor_check,
)

__version__ = "0.1.0"
