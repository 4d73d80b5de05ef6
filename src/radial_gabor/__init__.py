"""Radial time-frequency analysis: rotation-averaged Gabor frames for
radial functions, explicit well-spread phase-space lattices, modulation
space embedding classification, and linear/nonlinear approximation
experiments."""

__version__ = "0.1.0"

from .approximation import (
    ApproxReport,
    gabor_baseline_2d,
    linear_approx,
    nterm_approx,
    nterm_greedy,
    standard_gabor_coefficients,
)
from .bessel import sph_bessel_values
from .embeddings import (
    EmbeddingQuery,
    EmbeddingStatus,
    EmbeddingVerdict,
    approx_number_exponent,
    carl_exponent,
    classify_embedding,
    entropy_exponent,
    fit_decay_slope,
    h_sequence,
    rearrange,
    sigma_tail,
)
from .frames import (
    CoeffSeq,
    FrameSystem,
    NonConvergence,
    ReconstructionResult,
    analyze,
    build_frame,
    coeffs_to_csv,
    frame_bounds,
    frame_operator,
    reconstruct,
    synthesize,
)
from .lattice import (
    LatticeIndex,
    LatticeSpec,
    LatticeTable,
    angle_count,
    covered_2d,
    index_count,
    lattice_table,
    lattice_to_csv,
)
from .profiles import (
    GaussianSpec,
    GridMismatchError,
    RadialProfile,
    inner,
    make_profile,
    norm,
    normalized_gaussian_window,
    profile_from_csv,
    profile_to_csv,
    sphere_area,
)
from .stft import (
    OrbitPoint,
    phi_node_count,
    radial_stft,
    rot_avg_shift,
    stft_direct_2d,
    stft_rotation_average_2d,
)
