"""Numerical simulator for a capacitively shunted pair-tunneling qubit."""

__version__ = "0.1.0"

from .constants import PhysicalConstants, DEFAULT_CONSTANTS
from .model import (
    BasisTruncation,
    BiasPoint,
    CircuitParams,
    HermitianOperator,
    build_primitives,
    displaced_cosine,
    displaced_sine,
)
from .hamiltonians import (
    EffectiveParams,
    ToyParams,
    effective_params,
    full_hamiltonian,
    toy_hamiltonian,
)
from .eigensolver import EigenSolution, lowest_eigenpairs
from .analysis import (
    DisorderSweep,
    LabeledSolution,
    StateLabel,
    charge_dispersion,
    convergence_ladder,
    dispersive_shift,
    disorder_sweep,
    flux_sweep,
    label_states,
    normalized_matrix_elements,
    solve_circuit,
    wavefunction_charge,
    wavefunction_phase,
)
from .coherence import (
    CoherenceReport,
    full_report,
    q_cap,
    q_ind,
    t1_channel,
    tphi_charge,
    tphi_critical_current,
    tphi_flux,
    tphi_shot,
)
from .instanton import (
    InstantonPath,
    find_minima,
    path_approx,
    potential,
    reduce_to_effective,
    solve_instanton,
)
from .mathieu import asymptotic_dispersion, exact_dispersion
