"""Near-field LoS MIMO array design and hybrid beam focusing toolkit."""

import os
import sys

# One BLAS thread unless the caller chose a count. OpenBLAS sizes its pool
# when numpy loads, and at the paper's array sizes a second thread saves no
# time but spins a core after every call. Too late once numpy is loaded.
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from .beamforming import (
    DigitalBeamformer,
    HybridBeamformer,
    TwistedDft,
    asymptotic_hybrid,
    dictionary_rx,
    dictionary_tx,
    digital_svd,
    omp_hybrid,
    phase_extraction_hybrid,
)
from .channel import (
    ChannelParams,
    ChannelSet,
    exact_channel,
    fresnel_factors,
    gram,
    kron_factor_channel,
    prolate_matrix,
    quadratic_phase,
    taylor_channel,
)
from .geometry import (
    AntennaLayout,
    ArraySpec,
    LayoutKind,
    Side,
    aperture,
    aperture_feasible,
    axis_streams,
    build_layout,
    optimal_spacing,
    spacing_ratio,
)
from .linalg import (
    EigenSpectrum,
    SvdResult,
    active_backend,
    dft_matrix,
    eig_hermitian,
    least_squares,
    svd,
)
from .scenario import Scenario, ScenarioConfig, load_config
from .spectral import (
    PowerAllocation,
    rate,
    rate_upper_bound,
    transition_band,
    water_filling,
)

__version__ = "0.1.0"
