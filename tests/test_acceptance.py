"""Acceptance battery: eight self-consistency criteria, one pass/fail line each.

Each criterion is a single test that records one summary line (emitted by
the terminal-summary hook in conftest.py, after output capture ends) and
asserts both the stated tolerance and the runtime budget.
"""

import time

import numpy as np
import pytest

import conftest
from mlqm import (
    DeformationParams,
    DisplacedOscillatorParams,
    MomentumGrid,
    SwansonParams,
    commutator_residual,
    displaced_energy,
    displaced_metric,
    displaced_transform,
    displaced_wavefunction,
    eta_inner,
    gamma_independence,
    gram_matrix,
    solve_q_space,
    solve_q_space_branch,
    swanson_beta_c,
    swanson_energy,
    swanson_metric,
    swanson_transform,
    swanson_wavefunction,
)
from mlqm.models import displaced_coefficients, swanson_coefficients
from mlqm.verify import hermiticity_defect_report, ode_residual, pseudo_hermiticity_residual


def _line(number: int, label: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok else "FAIL"
    conftest.acceptance_lines.append(
        f"[criterion {number}] {status} {label}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)"
    )


def displaced_params(beta=0.1, gamma=0.0, lam=0.5):
    return DisplacedOscillatorParams(deformation=DeformationParams(1.0, beta, gamma), lam=lam)


def swanson_params(beta=0.5, lam=0.2, delta=0.2):
    return SwansonParams(deformation=DeformationParams(1.0, beta, 0.0), lam=lam, delta=delta)


def test_criterion_1_displaced_spectral_agreement():
    budget, t0 = 5.0, time.perf_counter()
    params = displaced_params()
    emap = params.family().energy_map
    result = solve_q_space(displaced_transform(params), n_levels=8)
    errs = []
    for n, eps in enumerate(result.eigenvalues):
        e_num = emap.energy(eps.real)
        e_ref = displaced_energy(n, params)
        errs.append(abs(e_num - e_ref) / abs(e_ref))
    worst = max(errs)
    e0 = displaced_energy(0, params)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and abs(e0 - 0.65062461) < 5e-9 and elapsed < budget
    _line(1, "displaced spectral agreement n=0..7", ok,
          f"max rel err {worst:.2e}, E0 {e0:.10f}", elapsed, budget)
    assert worst < 1e-6
    assert e0 == pytest.approx(0.65062461, abs=5e-9)
    assert elapsed < budget


def test_criterion_2_swanson_spectral_agreement():
    budget, t0 = 5.0, time.perf_counter()
    params = swanson_params()
    emap = params.family().energy_map
    e0 = swanson_energy(0, params)
    result = solve_q_space(swanson_transform(params), n_levels=8)
    errs = []
    for n, eps in enumerate(result.eigenvalues):
        e_num = emap.energy(eps.real)
        e_ref = float(np.real(swanson_energy(n, params)))
        errs.append(abs(e_num - e_ref) / max(abs(e_ref), 1.0))
    worst = max(errs)
    elapsed = time.perf_counter() - t0
    ok = abs(e0 - 0.45) < 1e-12 and worst < 1e-6 and elapsed < budget
    _line(2, "Swanson spectral agreement n=0..7", ok,
          f"E0 {float(np.real(e0)):.12f} (exact 0.45), max rel err {worst:.2e}", elapsed, budget)
    assert e0 == pytest.approx(0.45, abs=1e-12)
    assert worst < 1e-6
    assert elapsed < budget


def test_criterion_3_reality_transition():
    budget, t0 = 60.0, time.perf_counter()
    beta_c = swanson_beta_c(swanson_params())
    assert beta_c == pytest.approx(2.0, rel=1e-12)

    def branch(beta):
        return solve_q_space_branch(swanson_transform(swanson_params(beta=beta)), n_levels=4)

    below = branch(1.9)
    scale = max(1.0, float(np.max(np.abs(below.real_parts))))
    im_below = float(np.max(np.abs(np.imag(below.eigenvalues))))
    above = branch(2.1)

    lo, hi = 1.9, 2.1
    for _ in range(4):
        mid = 0.5 * (lo + hi)
        if branch(mid).has_conjugate_pair:
            hi = mid
        else:
            lo = mid
    onset = 0.5 * (lo + hi)
    elapsed = time.perf_counter() - t0
    ok = (
        im_below <= 1e-7 * scale
        and above.has_conjugate_pair
        and abs(onset - 2.0) <= 0.02
        and elapsed < budget
    )
    _line(3, "Swanson reality transition", ok,
          f"beta_c {beta_c:.3f}, max|Im|(1.9) {im_below:.1e}, pair at 2.1: {above.has_conjugate_pair}, "
          f"onset {onset:.4f}", elapsed, budget)
    assert im_below <= 1e-7 * scale
    assert above.has_conjugate_pair
    assert abs(onset - 2.0) <= 0.02
    assert elapsed < budget


def test_criterion_4_pseudo_hermiticity():
    budget, t0 = 30.0, time.perf_counter()
    d_params = displaced_params()
    d_coeffs = displaced_coefficients(d_params)
    res_d = pseudo_hermiticity_residual(d_coeffs, d_params.family().log_metric(), d_params.deformation).value

    s_params = swanson_params()
    res_s = pseudo_hermiticity_residual(
        swanson_coefficients(s_params), s_params.family().log_metric(), s_params.deformation
    ).value

    # non-Hermiticity (the identity residual at eta = 1): the criterion-2 Swanson
    # point lam = delta is Hermitian by construction, so the defect check
    # uses a genuinely asymmetric coupling
    defect_d = hermiticity_defect_report(d_coeffs, d_params.deformation).context["measured"]
    s_asym = swanson_params(lam=0.3, delta=0.1)
    defect_s = hermiticity_defect_report(swanson_coefficients(s_asym), s_asym.deformation).context["measured"]

    elapsed = time.perf_counter() - t0
    ok = res_d < 1e-6 and res_s < 1e-6 and defect_d > 1e-2 and defect_s > 1e-2 and elapsed < budget
    _line(4, "pseudo-Hermiticity", ok,
          f"residuals {res_d:.1e}/{res_s:.1e}, defects at eta = 1 {defect_d:.3f}/{defect_s:.3f}",
          elapsed, budget)
    assert res_d < 1e-6 and res_s < 1e-6
    assert defect_d > 1e-2 and defect_s > 1e-2
    assert elapsed < budget


def test_criterion_5_eta_orthonormality():
    budget, t0 = 10.0, time.perf_counter()
    d_params = displaced_params()
    d_states = [displaced_wavefunction(n, d_params) for n in range(6)]
    _, d_report = gram_matrix(d_states, displaced_metric(d_params), d_params.deformation)

    s_params = swanson_params()
    s_states = [swanson_wavefunction(n, s_params) for n in range(6)]
    _, s_report = gram_matrix(s_states, swanson_metric(s_params), s_params.deformation)

    # without eta some off-diagonal element must exceed 1e-3
    d = d_params.deformation
    plain = max(abs(eta_inner(a, b, None, d)) for i, a in enumerate(d_states) for b in d_states[i + 1:])
    elapsed = time.perf_counter() - t0
    ok = d_report.value < 1e-7 and s_report.value < 1e-7 and plain > 1e-3 and elapsed < budget
    _line(5, "eta-orthonormality of the first 6 states", ok,
          f"||G-I||max {d_report.value:.1e}/{s_report.value:.1e}, plain off-diagonal {plain:.2e}", elapsed, budget)
    assert d_report.value < 1e-7
    assert s_report.value < 1e-7
    assert plain > 1e-3
    assert elapsed < budget


def test_criterion_6_gamma_independence():
    budget, t0 = 30.0, time.perf_counter()
    params = displaced_params()
    report = gamma_independence(params, (0.0, 0.05, 0.1), 6)
    elapsed = time.perf_counter() - t0
    ok = report.value < 1e-6 and elapsed < budget
    _line(6, "gamma-independence of numeric E_n (n<=5)", ok,
          f"max rel spread {report.value:.2e} across gamma in {{0, beta/2, beta}}", elapsed, budget)
    assert report.value < 1e-6
    assert elapsed < budget


def test_criterion_7_ode_residual_and_fault_detection():
    budget, t0 = 5.0, time.perf_counter()
    d_params = displaced_params()
    d_coeffs = displaced_coefficients(d_params)
    s_params = swanson_params(lam=0.3, delta=0.1)
    s_coeffs = swanson_coefficients(s_params)
    worst = 0.0
    for n in range(6):
        psi = displaced_wavefunction(n, d_params)
        worst = max(worst, ode_residual(psi, d_coeffs, psi.epsilon).value)
        phi = swanson_wavefunction(n, s_params)
        worst = max(worst, ode_residual(phi, s_coeffs, phi.epsilon).value)
    psi0 = displaced_wavefunction(0, d_params)
    # shifting eps by 0.1 must push the residual above 1e-3
    fault = ode_residual(psi0, d_coeffs, psi0.epsilon + 0.1).value
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and fault > 1e-3 and elapsed < budget
    _line(7, "momentum-space ODE residual n<=5", ok,
          f"max residual {worst:.1e}, shifted-epsilon residual {fault:.2e}", elapsed, budget)
    assert worst < 1e-8
    assert fault > 1e-3
    assert elapsed < budget


def test_criterion_8_limits_and_algebra():
    budget, t0 = 10.0, time.perf_counter()
    # (a) beta -> 0 continuity against the undeformed formulas
    eps_beta = 1e-8
    d_small = displaced_params(beta=eps_beta)
    s_small = SwansonParams(deformation=DeformationParams(1.0, eps_beta, 0.0), lam=0.2, delta=0.2)
    worst_a = 0.0
    for n in range(11):
        e_d = displaced_energy(n, d_small)
        e_d0 = (n + 0.5) + 0.5**2 / 2.0
        worst_a = max(worst_a, abs(e_d - e_d0))
        e_s = swanson_energy(n, s_small)
        e_s0 = (n + 0.5) * np.sqrt(1.0 - 4.0 * 0.04)
        worst_a = max(worst_a, abs(complex(e_s) - e_s0))

    # (b) 4th-order convergence of the commutator residual
    d = DeformationParams(1.0, 0.1, 0.0)

    def resid(n):
        grid = MomentumGrid.symmetric(10.0, n)
        return commutator_residual(d, grid, np.exp(-0.5 * grid.points**2))

    ratio = resid(2001) / resid(4001)

    # (c) GUP dx dp >= hbar/2 (1 + beta dp^2) and dx >= hbar sqrt(beta) on closed-form states n = 0, 1, 2,
    # with x psi = i hbar ((1 + beta p^2) psi' + gamma p psi) and the library's quadrature under the measure
    def uncertainty(params, n):
        d, psi = params.deformation, params.family().wavefunction(n)

        def x_psi(p):
            return 1j * d.hbar * ((1.0 + d.beta * p**2) * psi.derivative(p) + d.gamma * p * psi(p))

        def mean(phi, chi):  # <phi|chi>/<psi|psi>, real for the symmetric x and p
            return eta_inner(phi, chi, None, d).real / eta_inner(psi, psi, None, d).real

        dx = np.sqrt(mean(x_psi, x_psi) - mean(psi, x_psi) ** 2)
        dp = np.sqrt(mean(psi, lambda p: p**2 * psi(p)) - mean(psi, lambda p: p * psi(p)) ** 2)
        return dx * dp, 0.5 * d.hbar * (1.0 + d.beta * dp**2), dx, d.min_length

    swanson_cli = swanson_params(beta=0.1, lam=0.5, delta=0.0)  # the CLI's Swanson defaults
    points = (displaced_params(lam=0.0), displaced_params(), displaced_params(gamma=0.05), swanson_cli)
    states = [uncertainty(params, n) for params in points for n in range(3)]
    gup_ok = all(lhs >= rhs * (1.0 - 1e-6) for lhs, rhs, _, _ in states)  # ground states with <p> = 0 saturate it
    min_len_ok = all(dx >= min_length for _, _, dx, min_length in states)
    gap = min(lhs - rhs for lhs, rhs, _, _ in states)
    dx0 = states[0][2]

    elapsed = time.perf_counter() - t0
    ok = worst_a < 1e-6 and 13.0 <= ratio <= 19.0 and gup_ok and min_len_ok and elapsed < budget
    _line(8, "limits and algebra", ok,
          f"beta->0 max err {worst_a:.1e}, convergence ratio {ratio:.2f}, "
          f"GUP min lhs-rhs {gap:+.1e}, dx0 {dx0:.6f} >= {points[0].deformation.min_length:.3f}",
          elapsed, budget)
    assert worst_a < 1e-6
    assert 13.0 <= ratio <= 19.0
    assert gup_ok
    assert min_len_ok
    assert elapsed < budget
