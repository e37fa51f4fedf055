"""Inverse scattering toolkit for the 2x2 matrix Hirota system with
nonzero boundary conditions: reflectionless soliton/breather construction,
numerical direct scattering, and independent PDE-level verification."""

from .grids import ARTIFACT_VERSION as __version__

from .errors import HirotaError
from .grids import FieldGrid, GridSpec, read_csv, read_json, write_csv, write_json
from .matrices import CMat2, CMat4, dagger, det2, embed, inv2
from .presets import Preset, preset, preset_names
from .scattering import (
    ScatteringSample,
    audit_symmetries,
    det_a,
    find_discrete_spectrum,
    integrate_jost,
    scattering_matrix,
)
from .solitons import (
    DiscreteEigenpair,
    RankFlag,
    SolitonSpec,
    eval_field,
    expand_quartets,
    one_soliton_closed_form,
    reconstruct_Q,
)
from .spectral import (Background, Region, SpectralPoint, antipode, asymptotic_eigenvectors, classify_region, theta,
                       uniformize)
from .traceform import TraceInput, theta_condition, trace_det_a
from .verification import (
    DecayReport,
    ResidualReport,
    boundary_decay,
    pde_residual,
    periodicity_probe,
    symmetry_residual,
)
