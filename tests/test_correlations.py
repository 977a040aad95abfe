import math

import numpy as np
import pytest

from diamondqc import (
    BellCoeffs,
    ChainParams,
    PositivityViolation,
    binary_entropy,
    boltzmann_elements,
    bell_diagonal_coeffs,
    concurrence_closed_form,
    concurrence_wootters,
    discord_parts,
    evaluate_row,
    gmqd,
    gqd_1norm_bell,
    min_conditional_entropy_closed,
    minimize_conditional_entropy,
    theta_fast,
    thermal_state_exact,
    von_neumann_entropy,
)
from diamondqc.correlations import is_axially_symmetric
from diamondqc.model import IDENTITY_2, PAULIS, bloch_decompose
from conftest import point


class TestEntropy:
    def test_pure_state(self):
        rho = np.zeros((4, 4))
        rho[0, 0] = 1.0
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self, maximally_mixed):
        assert von_neumann_entropy(maximally_mixed) == pytest.approx(2.0, abs=1e-12)

    def test_rank_two(self):
        assert von_neumann_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(1.0)

    def test_positivity_violation_propagates(self):
        with pytest.raises(PositivityViolation):
            von_neumann_entropy(np.diag([0.6, 0.5, 0.0, -0.1]))

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0)


class TestMutualInformation:
    def test_maximally_mixed(self, maximally_mixed):
        mi = discord_parts(maximally_mixed).mutual_information
        assert mi >= -1e-12
        assert mi == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self, bell_state):
        mi = discord_parts(bell_state).mutual_information
        assert mi >= -1e-12
        assert mi == pytest.approx(2.0, abs=1e-12)

    def test_additivity_on_cluster_state(self):
        rho = thermal_state_exact(point(j=1.0, j2=1.0, t=0.5))
        parts = discord_parts(rho)
        assert parts.mutual_information >= -1e-12
        assert parts.mutual_information == pytest.approx(
            parts.classical_correlation + parts.quantum_discord, abs=1e-9)


class TestConcurrence:
    def test_closed_form_no_exchange(self):
        els = boltzmann_elements(point(j=1.0, j2=0.0, h=0.4, t=0.6))
        assert concurrence_closed_form(els) == 0.0

    def test_dip_value_at_equal_couplings(self):
        els = boltzmann_elements(point(j=1.0, j2=1.0, t=1e-3))
        assert concurrence_closed_form(els) == pytest.approx(1.0 / 3.0, abs=1e-3)

    def test_maximal_for_weak_ising(self):
        els = boltzmann_elements(point(j=0.5, j2=1.0, t=1e-3))
        assert concurrence_closed_form(els) == pytest.approx(1.0, abs=1e-3)

    def test_field_lifts_the_dip_at_equal_couplings(self):
        # between zero field and saturation the ground mixes the singlet with
        # one polarized level, raising C from the 1/3 dip to exactly 1/2
        els = boltzmann_elements(point(j=1.0, j2=1.0, h=1.0, t=1e-3))
        assert concurrence_closed_form(els) == pytest.approx(0.5, abs=1e-3)

    def test_wootters_bell(self, bell_state):
        assert concurrence_wootters(bell_state) == pytest.approx(1.0, abs=1e-12)

    def test_wootters_maximally_mixed(self, maximally_mixed):
        assert concurrence_wootters(maximally_mixed) == 0.0

    def test_wootters_complex_pure_state(self):
        # |psi> = (|00> + i|11>)/sqrt(2): concurrence 2|ad - bc| = 1
        psi = np.array([1.0, 0.0, 0.0, 1.0j]) / math.sqrt(2.0)
        rho = np.outer(psi, psi.conj())
        assert concurrence_wootters(rho) == pytest.approx(1.0, abs=1e-12)

    def test_wootters_complex_generic_pure_state(self):
        amps = np.array([0.5, 0.1 + 0.4j, -0.3j, 0.6 - 0.2j])
        psi = amps / np.linalg.norm(amps)
        rho = np.outer(psi, psi.conj())
        expected = 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])
        assert concurrence_wootters(rho) == pytest.approx(expected, abs=1e-12)

    def test_routes_agree_on_lattice(self, lattice):
        for p in lattice[:60]:
            c_spec = concurrence_wootters(thermal_state_exact(p))
            c_closed = concurrence_closed_form(boltzmann_elements(p))
            assert abs(c_spec - c_closed) < 1e-10


class TestConditionalEntropyFastPath:
    def test_symmetric_weights_give_one_bit(self):
        els = boltzmann_elements(point(j=0.0, j2=0.0))
        assert theta_fast(els) == pytest.approx(0.0, abs=1e-15)
        assert min_conditional_entropy_closed(els) == pytest.approx(1.0, abs=1e-12)

    def test_strong_field_drives_entropy_to_zero(self):
        els = boltzmann_elements(point(j=0.0, j2=0.0, h=50.0))
        assert theta_fast(els) == pytest.approx(1.0, abs=1e-12)
        assert min_conditional_entropy_closed(els) < 1e-6

    def test_shortcut_never_undercuts_search(self, lattice):
        excesses = 0
        for p in lattice[:16]:
            fast = min_conditional_entropy_closed(boltzmann_elements(p))
            searched, _ = minimize_conditional_entropy(thermal_state_exact(p))
            assert fast >= searched - 1e-9
            if fast - searched > 1e-6:
                excesses += 1
        # the shortcut theta is known to overshoot; it must be visible somewhere
        assert excesses > 0


class TestDiscord:
    def test_maximally_mixed(self, maximally_mixed):
        assert discord_parts(maximally_mixed).quantum_discord == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self, bell_state):
        parts = discord_parts(bell_state)
        assert parts.quantum_discord == pytest.approx(1.0, abs=1e-10)
        assert parts.classical_correlation == pytest.approx(1.0, abs=1e-10)

    def test_diagonal_cluster_state_is_classical(self):
        rho = thermal_state_exact(point(j=0.9, j2=0.0, h=0.3, t=0.5))
        assert abs(discord_parts(rho).quantum_discord) < 1e-9

    def test_perfect_classical_correlation(self, classical_correlated):
        parts = discord_parts(classical_correlated)
        assert parts.classical_correlation == pytest.approx(1.0, abs=1e-10)
        assert abs(parts.quantum_discord) < 1e-9


class TestAxialDiscordSearch:
    def test_matches_the_2d_search_on_lattice(self, lattice):
        points = lattice[:40]
        for p in (points + [q.replace(h=0.0) for q in points]
                  + [q.replace(t=0.02) for q in points]):
            rho = thermal_state_exact(p)
            assert is_axially_symmetric(bloch_decompose(rho))
            parts = discord_parts(rho)
            assert parts.axis[1] == 0.0
            assert abs(parts.min_conditional - minimize_conditional_entropy(rho)[0]) < 1e-14

    def test_keeps_an_interior_optimum(self):
        # an X state with real coherence whose optimal axis lies strictly
        # between theta = 0 and pi/2, where both endpoints are 2e-3 bits worse
        rho = np.diag([0.0275, 0.0166, 0.9558, 0.0001])
        rho[1, 2] = rho[2, 1] = -0.109
        assert is_axially_symmetric(bloch_decompose(rho))
        parts = discord_parts(rho)
        assert 0.6 < math.acos(parts.axis[2]) < 0.7
        assert abs(parts.min_conditional - minimize_conditional_entropy(rho)[0]) < 1e-14

    def test_non_axial_state_takes_the_2d_search(self):
        # the cluster state with its first qubit rotated about y: x and R tilt off z
        rho = thermal_state_exact(point(j=0.7, j2=1.0, jm=0.3, h=0.4, t=0.5))
        u = np.kron(math.cos(0.3) * IDENTITY_2 - 1j * math.sin(0.3) * PAULIS[1], IDENTITY_2)
        rotated = u @ rho @ u.conj().T
        assert not is_axially_symmetric(bloch_decompose(rotated))
        parts = discord_parts(rotated)
        value, axis = minimize_conditional_entropy(rotated)
        assert parts.min_conditional == value
        assert np.array_equal(parts.axis, axis)


class TestGeometricDiscord:
    def test_maximally_mixed(self, maximally_mixed):
        assert gmqd(maximally_mixed) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self, bell_state):
        assert gmqd(bell_state) == pytest.approx(0.5, abs=1e-12)

    def test_diagonal_state_vanishes(self):
        rho = thermal_state_exact(point(j=0.9, j2=0.0, h=0.3, t=0.5))
        assert gmqd(rho) < 1e-12

    def test_bounded_by_half(self, lattice):
        for p in lattice:
            assert 0.0 <= gmqd(thermal_state_exact(p)) <= 0.5 + 1e-12


class TestOneNormBell:
    def test_zero_triple(self):
        assert gqd_1norm_bell(BellCoeffs(0.0, 0.0, 0.0)) == 0.0

    def test_bell_triple(self):
        assert gqd_1norm_bell(BellCoeffs(1.0, -1.0, 1.0)) == 1.0

    def test_median_selection(self):
        assert gqd_1norm_bell(BellCoeffs(0.2, -0.7, 0.5)) == 0.5

    def test_plateau_before_transition(self):
        rho = thermal_state_exact(point(j=0.5, j2=1.0, t=1e-3))
        assert gqd_1norm_bell(bell_diagonal_coeffs(rho)) == pytest.approx(1.0, abs=1e-2)


class TestFullReport:
    def test_infinite_temperature(self):
        rep = evaluate_row(point(j=1, j2=1, t=1e6))
        for value in (rep.concurrence, rep.qd, rep.gmqd, rep.gqd1):
            assert abs(value) < 1e-4

    def test_sudden_death_point(self):
        rep = evaluate_row(point(j=1.0, j2=1.0, t=2.0))
        assert rep.concurrence == 0.0
        assert rep.qd > 1e-3
        assert rep.gqd1 > 1e-3

    def test_magnetic_entanglement_with_strong_jm(self):
        rep = evaluate_row(ChainParams(2.0, 2.0, 1.5, 0.0, 1e-3))
        assert rep.concurrence == pytest.approx(1.0, abs=1e-3)

    def test_field_plateaus_at_equal_couplings_with_jm(self):
        # two entangled plateaus before the product ground state takes over:
        # the middle one mixes a polarized level with the singlet, and its
        # discord sits near 0.41 while concurrence sits at exactly 1/2
        inner = evaluate_row(ChainParams(2.0, 2.0, 1.5, 0.75, 1e-3))
        middle = evaluate_row(ChainParams(2.0, 2.0, 1.5, 2.0, 1e-3))
        dead = evaluate_row(ChainParams(2.0, 2.0, 1.5, 3.0, 1e-3))
        assert inner.concurrence == pytest.approx(1.0, abs=1e-3)
        assert inner.qd == pytest.approx(1.0, abs=1e-3)
        assert middle.concurrence == pytest.approx(0.5, abs=1e-3)
        assert middle.qd == pytest.approx(0.4122, abs=1e-3)
        assert dead.concurrence < 1e-12  # thermal tail only
        assert abs(dead.qd) < 1e-9

    def test_additivity_identity(self):
        rep = evaluate_row(point(j=1.3, j2=0.9, jm=0.6, h=0.4, t=0.7))
        assert rep.mutual_info == pytest.approx(
            rep.classical_corr + rep.qd, abs=1e-9)

    def test_nonzero_field_omits_one_norm(self):
        rep = evaluate_row(point(j=1.0, j2=1.0, h=0.5, t=0.5))
        assert rep.gqd1 is None
        assert rep.bell_coeffs is None
        assert "not_bell_diagonal" in rep.flags

    def test_theta_in_unit_interval(self, lattice):
        for p in lattice[:20]:
            rep_theta = theta_fast(boltzmann_elements(p))
            assert 0.0 <= rep_theta <= 1.0
