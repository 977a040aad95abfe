"""Quantum correlations of the spin-1/2 Ising-Heisenberg diamond-chain cluster.

The package builds the thermal two-qubit reduced state of one diamond
cluster (a Heisenberg spin pair coupled to two classical Ising spins in a
longitudinal field) and evaluates concurrence, quantum discord, and the
Hilbert-Schmidt and trace-norm geometric discords across parameter sweeps,
with brute-force searches validating every closed-form expression.
"""

from .errors import (
    DiamondQCError,
    GridTooLarge,
    NoBracket,
    NotBellDiagonal,
    PositivityViolation,
    TemperatureTooLow,
)
from .model import (
    BellCoeffs,
    BlochDecomposition,
    ChainParams,
    ClusterElements,
    bell_diagonal_coeffs,
    bloch_decompose,
    bloch_reconstruct,
    boltzmann_elements,
    cluster_hamiltonian,
    reduced_state,
    thermal_state_exact,
    validate_constructions,
    validate_density,
)
from .correlations import (
    binary_entropy,
    concurrence_closed_form,
    concurrence_wootters,
    discord_parts,
    gmqd,
    gqd_1norm_bell,
    min_conditional_entropy_closed,
    theta_fast,
    von_neumann_entropy,
)
from .oracles import (
    GridSpec,
    gmqd_variational,
    gqd_1norm_variational,
    measured_state,
    minimize_conditional_entropy,
)
from .sweep import (
    AxisRange,
    SweepRow,
    SweepSpec,
    ThresholdQuery,
    ThresholdResult,
    evaluate_row,
    find_threshold,
    run_sweep,
    run_validate,
    sweep_points,
    validation_lattice,
)

__version__ = "0.1.0"
