"""Cross-resonance digital-analog simulation toolkit.

Builds the effective and original Hamiltonians of driven coupled-qubit
chains and lattices, compiles digital-analog block schedules for Ising,
XY, and Heisenberg spin models, and quantifies every synthesis and
product-formula error by exact numerics at desk scale.
"""

from .compiler import (
    AnalogSegment,
    ModelKind,
    Schedule,
    SimulationTrace,
    TargetModel,
    block_error,
    block_unitary,
    compile_model,
    fuse,
    schedule_unitary,
    simulate,
    target_hamiltonian,
)
from .device import (
    DeviceParams,
    DriveConfig,
    Lattice,
    effective_coupling,
    load_config,
)
from .errors import (
    ErrorReport,
    ReportEntry,
    bound_table,
    dyson_norm_formula,
    dyson_propagator_diff,
    synthesis_norm,
    synthesis_norm_formula,
    table1_check,
    trotter_commutator,
    unit_cell_report,
)
from .frames import (
    FrameVerification,
    GateLayer,
    GateLayerKind,
    frame_error_scaling,
    frame_pipeline_unitary,
    layer_unitary,
    phase_insensitive_distance,
    propagate_unitary,
    toggle,
    toggle_chain,
    uqf_approx,
    unitarity_defect,
    verify_effective,
)
from .hamiltonians import (
    HamiltonianKind,
    TimeDependentHamiltonian,
    build_canonical,
    build_delta,
    build_lab_frame,
    build_org,
    build_qf_effective,
    lab_frame_hamiltonian,
    rotating_frame_hamiltonian,
    translate_2d,
)
from .pauli import (
    ConvergenceError,
    DenseLimitError,
    PauliSum,
    commutator,
    expm_hermitian,
    multiply,
    spectral_norm,
)

__version__ = "0.1.0"
