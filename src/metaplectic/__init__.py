"""Sign double cover of GL2(Z), half-integral-weight slash actions on the
double half-plane, restriction/induction of vector-valued forms, and a
desk-scale certification suite for the whole stack."""

__version__ = "0.1.0"

from .automorphy import i_power, phi_lower, phi_upper, principal_sqrt
from .certify import CheckReport, run_certification
from .cover import (
    CENTER_FLIP,
    LIFT_R,
    LIFT_S,
    LIFT_T,
    LIFT_Z,
    Mat2,
    MetaElt,
    cocycle,
    conj_by_reflection,
    enumerate_cover,
    hilbert_symbol,
    kubota_chi,
    parse_word,
    reflection_sign,
    word_decompose,
    word_lift,
    word_matrix,
)
from .errors import DomainError, ModularityError, ResourceLimitError
from .qseries import (
    QSeriesConfig,
    eisenstein,
    eisenstein_form,
    eta,
    eta_character,
    eta_form,
    eta_hat,
    eta_hat_form,
    lattice_sum,
    triangular_product,
    triangular_product_factored,
)
from .reps import Rep, VVForm, extend_form, induce_form, modularity_residual, project_components
from .slash import (
    HoloFn,
    Weight,
    admissible_reflection_scalars,
    composition_residual,
    mobius,
    slash,
)

__all__ = [name for name in dir() if not name.startswith("_")]
