"""Traveling-wave families, Hill-operator spectra, and orbital-stability
experiments for the one-dimensional Zakharov system."""

from .elliptic import Modulus, complete_E, complete_K, dK_dk, jacobi_sn_cn_dn
from .errors import AccuracyError, BlowUpError, DomainError, NoSolutionError
from .wavefamily import (
    DnoidalWave,
    FamilyTable,
    SolitaryWave,
    WaveParams,
    build_wave,
    family_sweep,
    mass_derivative,
    mass_integral,
    nu_threshold,
    ode_residuals,
    period_of,
    solitary_wave,
    solve_eta2,
)
from .spectral import (
    HillOperator,
    HillSpectrum,
    assemble,
    constrained_rayleigh_min,
    hill_L3,
    hill_L4,
    instability_intervals,
    lame_eigen_analytic,
    lame_operator,
    lambda_from_rho,
    periodic_spectrum,
    semiperiodic_spectrum,
)
from .dynamics import (
    Evolver,
    ExperimentRecord,
    FieldState,
    GridSpec,
    ZakInvariants,
    band_limited_perturbation,
    default_dt,
    evolve,
    functional_B,
    invariants,
    orbital_distance,
    q1_paper_form,
    shift_distance,
    solitary_experiment,
    stability_experiment,
    stationarity_check,
    wave_state,
)

__version__ = "0.1.0"
