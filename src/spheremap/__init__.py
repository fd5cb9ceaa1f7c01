"""spheremap: a pseudo-spectral verification lab for the Schrodinger map flow
d_t s = s x Laplacian(s) on the periodic torus.

The package evolves sphere-valued fields, constructs Coulomb-gauge tangent
frames, derives the coupled nonlinear Schrodinger system satisfied by the
frame coordinates of the gradient, and checks every structural identity,
conservation law and quantitative bound numerically at desk scale.
"""

from .spectral import (
    Grid,
    dealias,
    inv_gradient_riesz,
    l2_norm,
    riesz,
)
from .geometry import (
    BlowupSuspectedError,
    Connection,
    Frame,
    FrameDegenerateError,
    SphereField,
    coulomb_fix,
    connection_of,
    default_qprime,
    flow_rhs,
    renormalize,
    rotate_frame,
    transport_frame,
)
from .gauge import (
    CoulombSlice,
    a0_from_psi,
    a_from_psi,
    coulomb_slice,
    derive_psi,
    msm_nonlinearity,
)
from .initial_data import InitialDataSpec, generate_initial
from .diagnostics import (
    DiagnosticsRow,
    SpaceTimeRecord,
    critical_norm,
    directional_norm,
    energy,
    frame_bound_ratio,
    l2_distance_q,
    xk_norm,
)
from .evolution import (
    SimConfig,
    TrajectoryRecord,
    default_dt,
    evolve_msm,
    run,
    step_rk4_projected,
)
from .cli_io import (
    ConfigError,
    Snapshot,
    SnapshotFormatError,
    cli_main,
    emit_diagnostics_csv,
    gauge_identity_suite,
    load_snapshot,
    parse_config,
    save_snapshot,
)

__version__ = "0.1.0"
