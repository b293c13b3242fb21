"""Exact-simulation workbench for the ADAPT-GCIM family of eigensolvers."""

import os

# The dense solves here are small, and several BLAS threads on them cost more
# than they save.  Set before numpy is first imported; a user's own setting
# wins, and a process that imported numpy before gcim keeps its thread count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .adapt import (
    ADAPT_GCIM,
    ADAPT_GCIM_MN,
    ADAPT_VQE,
    ADAPT_VQE_GCIM,
    ADAPT_VQE_GCIM_1,
    ALGORITHMS,
    AdaptConfig,
    AdaptTrace,
    gcim_energy_gradient,
    pool_gradients,
    run_algorithm,
    select_operator,
    vqe_minimize,
)
from .fcidump import SpatialIntegrals, assemble_hamiltonian, dumps_fcidump, parse_fcidump
from .fermion import FermionOperator, jordan_wigner, jordan_wigner_all
from .pauli import (
    PauliString,
    PauliSum,
    jw_to_matrix,
    parse_pauli_json,
    pauli_mul,
    pauli_sum_to_json,
)
from .pool import PoolOperator, build_pool, pool_to_json
from .resources import ansatz_cnot_total, cnot_count, measurement_estimate
from .shots import (
    EntryEstimator,
    ShotConfig,
    allocate_shots_is,
    chebyshev_shots,
    exact_decomposition,
    hf_filter,
    mc_experiment,
    mc_sweep,
    sample_entry,
)
from .statevector import (
    ExactSpectrum,
    StateVector,
    apply_paulisum,
    exact_spectrum,
    exp_apply,
    hf_state,
)
from .subspace import (
    BasisRecipe,
    GevpResult,
    SubspaceBasis,
    build_matrices,
    excitation_energies,
    orthogonalize_basis,
    overlap_deficit,
    reconstruct_state,
    solve_gevp,
)
from .toy import toy_integrals, toy_system

__version__ = "0.1.0"
