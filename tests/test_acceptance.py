"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line with the measured value before asserting at the stated
tolerance.  Criteria with several independent clauses are split into
lettered sub-tests so a single failing clause is visible in isolation.
"""

import math

import numpy as np

from diamondqc import (
    ChainParams,
    GridSpec,
    ThresholdQuery,
    bell_diagonal_coeffs,
    boltzmann_elements,
    concurrence_closed_form,
    concurrence_wootters,
    discord_parts,
    evaluate_row,
    find_threshold,
    gmqd,
    gmqd_variational,
    gqd_1norm_bell,
    gqd_1norm_variational,
    minimize_conditional_entropy,
    run_validate,
    thermal_state_exact,
    validate_constructions,
    validation_lattice,
)


def check(criterion: str, description: str, ok: bool, detail: str):
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} "
          f"- {description} ({detail})")
    assert ok, f"criterion {criterion} - {description}: {detail}"


def cluster(j, j2=1.0, jm=0.0, h=0.0, t=1.0):
    return ChainParams(j=j, j2=j2, jm=jm, h=h, t=t)


LATTICE = validation_lattice(200)


class TestCriterion1Construction:
    def test_corrected_v_agrees_on_lattice(self):
        worst = max(validate_constructions(p)[0] for p in LATTICE)
        check("1", "closed-form u,v,w,y vs exact trace-out (corrected v), 200 points",
              worst <= 1e-12, f"max |dev| = {worst:.3e}")

    def test_verbatim_v_agrees_at_j_zero(self):
        worst = max(validate_constructions(p.replace(j=0.0))[1]
                    for p in LATTICE[:20])
        check("1", "verbatim v agrees at j = 0",
              worst <= 1e-12, f"max |dev| = {worst:.3e}")

    def test_verbatim_v_deviation_detected_and_reported(self):
        worst = max(validate_constructions(p)[1] for p in LATTICE)
        summary = run_validate(points=30, oracle_points=2, onenorm_points=1)
        reported = any("verbatim v" in d for d in summary.deviations)
        check("1", "verbatim v deviation at j != 0 detected and reported",
              worst > 1e-8 and reported,
              f"max |dev| = {worst:.3e}, reported = {reported}")


class TestCriterion2ConcurrenceDip:
    def test_dip_value(self):
        value = concurrence_closed_form(boltzmann_elements(cluster(1.0, t=1e-3)))
        check("2", "field-free concurrence dip 1/3 at j = j2",
              abs(value - 1.0 / 3.0) <= 1e-3, f"C = {value:.6f}")


class TestCriterion3MaximalEntanglement:
    def test_weak_ising_concurrence(self):
        value = concurrence_closed_form(boltzmann_elements(cluster(0.5, t=1e-3)))
        check("3", "maximal low-T concurrence for j < j2",
              abs(value - 1.0) <= 1e-3, f"C = {value:.6f}")


class TestCriterion4SaturationField:
    # The finder locates the dead-level crossing C = eps_dead, not the
    # ground-state crossing H* = j + j2.  Past H* the leading Boltzmann
    # exponents in _element_terms are u ~ exp((6H - jm - 4j - j2)/4T), which
    # gives Z ~ u, and |y| ~ (1/2) exp((2H - jm + 3 j2)/4T).  So
    # C = 2|y|/Z ~ exp(-(|H| - H*)/T), and the dead level is crossed a
    # distance T ln(1/eps_dead) beyond H* (0.207 at T = 0.01).
    J, J2, T = 1.0, 1.0, 0.01

    def _check_saturation(self, criterion, description, sign, q):
        res = find_threshold(q, cluster(self.J, j2=self.J2, t=self.T))
        offset = self.T * math.log(1.0 / q.eps_dead)
        expected = sign * (self.J + self.J2 + offset)
        ground = res.location - sign * offset if res.found else None
        check(criterion, f"{description} = {expected:.5f} (T = 0.01)",
              res.found and abs(res.location - expected) <= 0.02,
              f"found H = {res.location}, ground-state field H* = {ground}")

    def test_positive_field(self):
        self._check_saturation(
            "4a", "concurrence death at H = j + j2 + T ln(1/eps_dead)", +1,
            ThresholdQuery(scan="H", lo=0.5, hi=3.0, measure="concurrence"))

    def test_mirrored_field(self):
        self._check_saturation(
            "4b", "mirrored concurrence death at H = -(j + j2 + T ln(1/eps_dead))", -1,
            ThresholdQuery(scan="H", lo=-3.0, hi=-0.5, measure="concurrence"))


class TestCriterion5CriticalField:
    def test_threshold_with_strong_jm(self):
        # Just above the ground-state crossing H* = 2 j2 - 2 j + jm the leading
        # exponents are u ~ exp((2H - jm + 4j - j2)/4T), which gives Z ~ u,
        # |y| ~ exp((jm + 3 j2)/4T) and sqrt(uv) = exp((4j - jm - j2)/4T) << |y|.
        # So C = 2(|y| - sqrt(uv))/Z ~ 2 exp(-(H - H*)/2T), and the dead level
        # is crossed 2T ln(2/eps_dead) above H* (0.428 at T = 0.01).
        j, j2, jm, t = 2.0, 1.0, 2.5, 0.01
        q = ThresholdQuery(scan="H", lo=0.1, hi=2.0, measure="concurrence")
        res = find_threshold(q, ChainParams(j, j2, jm, 0.0, t))
        offset = 2.0 * t * math.log(2.0 / q.eps_dead)
        expected = 2.0 * j2 - 2.0 * j + jm + offset
        ground = res.location - offset if res.found else None
        check("5a", f"critical field 2 j2 - 2 j + jm + 2T ln(2/eps_dead) = {expected:.5f} "
              "(T = 0.01)",
              res.found and abs(res.location - expected) <= 0.02,
              f"found H = {res.location}, ground-state field H* = {ground}")

    def test_no_magnetic_entanglement_with_weak_jm(self):
        worst = max(
            concurrence_wootters(thermal_state_exact(ChainParams(2.0, 1.0, 1.5, h, 0.01)))
            for h in np.linspace(-4.0, 4.0, 161))
        check("5b", "no entanglement anywhere for jm <= 2(j - j2)",
              worst <= 1e-6, f"max C over H in [-4, 4] = {worst:.3e}")


class TestCriterion6OneNormTransition:
    def test_plateau_before_transition(self):
        rho = thermal_state_exact(cluster(0.9, t=1e-3))
        value = gqd_1norm_bell(bell_diagonal_coeffs(rho))
        check("6a", "trace-norm discord plateau 1 at j = 0.9",
              abs(value - 1.0) <= 1e-2, f"gqd1 = {value:.6f}")

    def test_closed_form_equals_search_after_transition(self):
        rho = thermal_state_exact(cluster(1.1, t=1e-3))
        med = gqd_1norm_bell(bell_diagonal_coeffs(rho))
        est = gqd_1norm_variational(rho)
        check("6b", "post-transition closed form equals variational search",
              abs(med - est) <= 1e-3, f"median = {med:.3e}, search = {est:.3e}")

    def test_post_transition_landing_value(self):
        est = gqd_1norm_variational(thermal_state_exact(cluster(1.1, t=1e-3)))
        check("6c", "post-transition value lands near 0.26 at j = 1.1",
              abs(est - 0.26) <= 0.05, f"search value = {est:.3e}")


class TestCriterion7SuddenDeathVsRobustness:
    def test_finite_death_temperature_but_robust_discords(self):
        temps = np.linspace(0.05, 5.0, 60)
        cs, qds, g1s = [], [], []
        for t in temps:
            p = cluster(1.0, t=float(t))
            rho = thermal_state_exact(p)
            cs.append(concurrence_wootters(rho))
            qds.append(discord_parts(rho).quantum_discord)
            g1s.append(gqd_1norm_bell(bell_diagonal_coeffs(rho)))
        cs = np.array(cs)
        dead = np.where(cs == 0.0)[0]
        t_star_ok = dead.size > 0 and 0.1 <= temps[dead[0]] <= 5.0
        all_dead_after = dead.size > 0 and np.all(cs[dead[0]:] == 0.0)
        robust = min(qds) > 1e-4 and min(g1s) > 1e-4
        check("7", "entanglement dies at finite T while discords stay positive",
              t_star_ok and all_dead_after and robust,
              f"first dead T = {temps[dead[0]] if dead.size else None}, "
              f"min QD = {min(qds):.3e}, min gqd1 = {min(g1s):.3e}")


class TestCriterion8OrderingNonUniversality:
    @staticmethod
    def _slices():
        rows = []
        for j in (0.0, 1.0, 2.0):
            for t in np.linspace(0.05, 2.0, 40):
                rho = thermal_state_exact(cluster(j, t=float(t)))
                rows.append((discord_parts(rho).quantum_discord,
                             gqd_1norm_bell(bell_diagonal_coeffs(rho))))
        return rows

    def test_exists_point_with_discord_below_one_norm(self):
        rows = self._slices()
        hits = sum(1 for qd, g1 in rows if qd < g1)
        check("8a", "some sampled point has QD < trace-norm discord",
              hits > 0, f"{hits}/{len(rows)} points")

    def test_exists_point_with_discord_above_one_norm(self):
        rows = self._slices()
        hits = sum(1 for qd, g1 in rows if qd > g1)
        best = max(qd - g1 for qd, g1 in rows)
        check("8b", "some sampled point has QD > trace-norm discord",
              hits > 0, f"{hits}/{len(rows)} points, max(QD - gqd1) = {best:.3e}")


class TestCriterion9OracleEquivalences:
    def test_wootters_vs_closed_form(self):
        worst = max(
            abs(concurrence_wootters(thermal_state_exact(p))
                - concurrence_closed_form(boltzmann_elements(p)))
            for p in LATTICE)
        check("9", "spin-flip concurrence equals closed form on 200 points",
              worst <= 1e-10, f"max |dev| = {worst:.3e}")

    def test_gmqd_closed_vs_variational(self):
        worst = max(abs(gmqd(thermal_state_exact(p))
                        - gmqd_variational(thermal_state_exact(p)))
                    for p in LATTICE[:24])
        check("9", "closed geometric discord equals variational search",
              worst <= 1e-4, f"max |dev| = {worst:.3e}")

    def test_one_norm_median_vs_variational(self):
        worst = 0.0
        for p in LATTICE[:10]:
            rho = thermal_state_exact(p.replace(h=0.0))
            med = gqd_1norm_bell(bell_diagonal_coeffs(rho))
            worst = max(worst, abs(med - gqd_1norm_variational(rho)))
        check("9", "Bell-diagonal median equals variational trace-norm search",
              worst <= 1e-3, f"max |dev| = {worst:.3e}")

    def test_discord_stable_under_grid_doubling(self):
        worst = 0.0
        for p in LATTICE[:10]:
            rho = thermal_state_exact(p)
            base, _ = minimize_conditional_entropy(rho, GridSpec())
            fine, _ = minimize_conditional_entropy(rho, GridSpec(128, 256))
            worst = max(worst, abs(base - fine))
        check("9", "searched conditional entropy stable under grid doubling",
              worst <= 1e-8, f"max |dev| = {worst:.3e}")


class TestCriterion10IdentitiesAndSymmetries:
    def test_additivity(self):
        worst = 0.0
        for p in LATTICE:
            parts = discord_parts(thermal_state_exact(p))
            worst = max(worst, abs(parts.mutual_information
                                   - parts.classical_correlation
                                   - parts.quantum_discord))
        check("10", "I = C + D at every sampled point (200-point grid)",
              worst <= 1e-9, f"max |dev| = {worst:.3e}")

    def test_j_sign_symmetry_of_measures(self):
        worst = 0.0
        for p in LATTICE[:10]:
            a = evaluate_row(p.replace(h=0.0))
            b = evaluate_row(p.replace(h=0.0, j=-p.j))
            worst = max(worst, abs(a.concurrence - b.concurrence),
                        abs(a.qd - b.qd),
                        abs(a.gmqd - b.gmqd), abs(a.gqd1 - b.gqd1))
        check("10", "measures invariant under j -> -j at zero field",
              worst <= 1e-9, f"max |dev| = {worst:.3e}")

    def test_measurement_side_swap_invariance(self):
        worst = 0.0
        for p in LATTICE[:8]:
            rho = thermal_state_exact(p)
            swapped = rho.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4)
            worst = max(worst, abs(discord_parts(rho).quantum_discord
                                   - discord_parts(swapped).quantum_discord))
        check("10", "discord invariant under swapping the measured side",
              worst <= 1e-9, f"max |dev| = {worst:.3e}")

    def test_all_measures_vanish_at_high_temperature(self):
        rep = evaluate_row(cluster(1.0, t=1e3))
        values = {"concurrence": rep.concurrence, "qd": rep.qd,
                  "cc": rep.classical_corr, "mi": rep.mutual_info,
                  "gmqd": rep.gmqd, "gqd1": rep.gqd1}
        worst = max(abs(v) for v in values.values())
        check("10", "every measure below 1e-3 at T = 1e3",
              worst < 1e-3, f"max measure = {worst:.3e}")
