"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the whole gate reads as a checklist:

    python -m pytest tests/test_acceptance.py -s
"""
import math
import time

import numpy as np
import pytest

from sagnacsim.controller import (EventKind, ScenarioScript, SystemMode,
                                  run_scenario)
from sagnacsim.disturbance import (DisturbanceEvent, PressureParams,
                                   PztParams, pressure_delay)
from sagnacsim.optics import (C_VACUUM, LoopChannel, PostSelection,
                              SpectralPacket, omega_from_wavelength,
                              post_selection_probabilities)
from sagnacsim.perception import (find_null_frequencies, frequency_sweep,
                                  localization_report, resolution,
                                  synthesize_trace)
from sagnacsim.qkd import (CALIBRATED_PHASE_NOISE_RAD, DetectorModel,
                           QkdSettings, SourceModel, fixed_phase_error_rate,
                           run_session, session_summary)
from sagnacsim.wm import WmSettings, infer_delay, pressure_staircase

from oracles import (ac_power_at, exact_contrast_ratio, first_order_span,
                     spectral_port_probability, two_sided_position_span)

L = 30000.0
N_FIBER = 1.468
OMEGA = omega_from_wavelength(1550e-9)


def outcome(number: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")


def sensing_channel(bias=0.5 * math.pi):
    return LoopChannel(length_m=L, refractive_index=N_FIBER,
                       bias_phase_rad=bias)


def pzt(position_m, f_hz, delta_d, start_s=0.0):
    return DisturbanceEvent(
        PztParams(drive_amplitude_v=1.0,
                  frequency_hz=f_hz,
                  phase_gain_rad_per_v=delta_d),
        position_m=position_m, start_s=start_s)


def test_criterion_1_qber_formula_suite():
    """Noiseless windowed error rate matches (1 - cos d)/2 at five phases."""
    start = time.monotonic()
    source = SourceModel()
    channel = LoopChannel(length_m=L, refractive_index=N_FIBER, loss_db=0.0)
    detector = DetectorModel(dark_count_prob_per_gate=0.0)
    rows = []
    all_ok = True
    for i, delta in enumerate((0.0, math.pi / 4, math.pi / 2,
                               3 * math.pi / 4, math.pi)):
        expected = 0.5 * (1.0 - math.cos(delta))
        qber, errors, counted = fixed_phase_error_rate(
            delta, 1_000_000, 100 + i, source, channel, detector)
        if expected in (0.0, 1.0):
            ok = qber == expected
            band = 0.0
        else:
            band = 3.0 * math.sqrt(expected * (1.0 - expected) / counted)
            ok = abs(qber - expected) <= band
        all_ok &= ok
        rows.append(f"d={delta:.3f}: {qber:.4f} vs {expected:.4f} "
                    f"(+-{band:.4f}, n={counted})")
    elapsed = time.monotonic() - start
    all_ok &= elapsed < 10.0
    outcome(1, all_ok, "; ".join(rows) + f"; {elapsed:.1f}s")
    assert all_ok


def test_criterion_2_calibrated_operating_point():
    """16.5 dB loss with tuned noise reproduces 22.4 kbps and 4.76 %."""
    start = time.monotonic()
    records = run_session(
        100.0, 20260810, SourceModel(),
        LoopChannel(length_m=L, refractive_index=N_FIBER, loss_db=16.5,
                    intrinsic_delay_s=3e-13),
        DetectorModel(dark_count_prob_per_gate=1e-6),
        settings=QkdSettings(window_s=1.0, pulses_per_window=100_000,
                             phase_noise_rad=CALIBRATED_PHASE_NOISE_RAD))
    summary = session_summary(records)
    elapsed = time.monotonic() - start
    rate = summary["mean_raw_rate_bps"]
    qber = summary["qber_pooled"]
    rate_ok = abs(rate - 22400.0) <= 0.10 * 22400.0
    qber_ok = abs(qber - 0.0476) <= 0.01
    time_ok = elapsed < 30.0
    ok = rate_ok and qber_ok and time_ok
    outcome(2, ok, f"rate {rate:.0f} bps (22400 +-10%), "
                   f"qber {100 * qber:.2f}% (4.76 +-1 pt), "
                   f"{summary['pulses_sent']:.0e} pulses in {elapsed:.1f}s")
    assert ok


def test_criterion_3_null_frequency_reproduction():
    """First null of the 5 km scenario lands on 10.21 kHz; the 0 km and
    10 km cases match the transit formula."""
    step = 100.0
    ok = True
    details = []
    for x, f_formula, reference in (
            (5000.0, C_VACUUM / (N_FIBER * (L - 2 * 5000.0)), 10.21e3),
            (0.0, C_VACUUM / (N_FIBER * L), 6.91e3),
            (10000.0, C_VACUUM / (N_FIBER * (L - 2 * 10000.0)), 19.72e3)):
        grid = np.arange(max(1000.0, f_formula - 5000.0),
                         f_formula + 5000.0, step)
        sweep = frequency_sweep(
            pzt(x, 500.0, 0.05), sensing_channel(), grid,
            duration_s=0.02, noise_sigma=0.0019, seed=int(x) + 3)
        nulls = find_null_frequencies(sweep, max_k=1)
        found = nulls[0].frequency_hz if nulls else float("nan")
        formula_ok = nulls and abs(found - f_formula) <= 2 * step
        ok &= bool(formula_ok)
        details.append(f"x={x / 1000:g}km: found {found:.1f} Hz, "
                       f"formula {f_formula:.1f} Hz")
        if x == 5000.0:
            ok &= abs(found - 10.21e3) <= 2 * step
        else:
            # these two reference readings imply slightly different
            # effective indices; the transit formula is the contract here
            details.append(
                f"  (reference reading {reference:.0f} Hz differs from the "
                f"formula value by {reference - f_formula:+.1f} Hz)")
    outcome(3, ok, "; ".join(details))
    assert ok


def test_criterion_4_localization_round_trip():
    """50 random position/amplitude scenarios re-localize within
    max(resolution, interpolation 3 sigma)."""
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    step = 250.0
    grid = np.arange(2000.0, 75000.0 + step, step)
    passed = 0
    worst = 0.0
    for i in range(50):
        x_true = rng.uniform(0.05, 0.45) * L
        delta_d = rng.uniform(0.03, 0.15)
        sweep = frequency_sweep(
            pzt(x_true, 500.0, delta_d), sensing_channel(), grid,
            duration_s=0.01, noise_sigma=0.0019,
            seed=int(rng.integers(0, 2**31)))
        try:
            nulls = find_null_frequencies(sweep, max_k=3)
            report = localization_report(nulls, sensing_channel())
        except Exception:
            continue
        first = report.nulls[0]
        slope = first.harmonic * C_VACUUM / (
            2 * N_FIBER * first.frequency_hz ** 2)
        tolerance = max(report.resolution_m, 3.0 * slope * step / 2.0)
        error = abs(report.position_m - x_true)
        worst = max(worst, error / tolerance)
        if error <= tolerance:
            passed += 1
    elapsed = time.monotonic() - start
    ok = passed >= 48 and elapsed < 120.0
    outcome(4, ok, f"{passed}/50 within tolerance "
                   f"(worst error/tolerance {worst:.2f}), {elapsed:.1f}s")
    assert ok


def test_criterion_5_midpoint_blindness():
    """Equal drive at the loop midpoint stays >= 40 dB below quarter-loop."""
    f_drive = C_VACUUM / (N_FIBER * L)  # peak response at x = L/4
    mid = synthesize_trace((pzt(L / 2, f_drive, 0.1),), sensing_channel(),
                           0.08, 200e3, 0.0019, seed=31)
    quarter = synthesize_trace((pzt(L / 4, f_drive, 0.1),), sensing_channel(),
                               0.08, 200e3, 0.0019, seed=31)
    suppression_db = 10.0 * math.log10(
        ac_power_at(quarter, f_drive) / ac_power_at(mid, f_drive))
    ok = suppression_db >= 40.0
    outcome(5, ok, f"midpoint suppression {suppression_db:.1f} dB (>= 40)")
    assert ok


def test_criterion_6_wm_staircase():
    """100 g steps read as 9.81 as each; contrast matches the exact ratio;
    noisy masses recover to better than 10 g."""
    masses = [0.1, 0.2, 0.3, 0.4, 0.5]
    channel = LoopChannel(length_m=L, refractive_index=N_FIBER,
                          intrinsic_delay_s=3e-13)
    packet = SpectralPacket(OMEGA, 0.0)
    eps = math.pi / 6.0

    clean = pressure_staircase(
        masses, WmSettings(delta_epsilon_rad=eps, input_power_w=1.0,
                           noise_sigma=0.0,
                           pressure=PressureParams(mass_kg=0.1)),
        channel, packet)
    delays = [r.inferred_delay_s for r in clean]
    steps = np.diff([0.0] + delays)
    steps_ok = all(abs(s - 9.81e-18) < 1e-20 for s in steps)
    icr_ok = all(
        abs(r.contrast_ratio
            - exact_contrast_ratio(pressure_delay(PressureParams(mass_kg=m)),
                                   eps, OMEGA)) < 1e-9
        for m, r in zip(masses, clean))

    noisy = pressure_staircase(
        masses, WmSettings(delta_epsilon_rad=eps, input_power_w=1.0,
                           noise_sigma=0.0019, samples_per_reading=16,
                           pressure=PressureParams(mass_kg=0.1)),
        channel, packet, seed=77)
    mass_errors = [abs(r.inferred_mass_kg - m)
                   for m, r in zip(masses, noisy)]
    noise_ok = max(mass_errors) < 0.010

    ok = steps_ok and icr_ok and noise_ok
    outcome(6, ok, f"steps {[f'{s * 1e18:.4f}' for s in steps]} as, "
                   f"max noisy mass error {1e3 * max(mass_errors):.2f} g")
    assert ok


def test_criterion_7_reciprocity_immunity_and_breach_workflow():
    """A standing weight leaves the key channel untouched while a strong
    sinusoidal drive breaches and walks the full workflow."""
    base = dict(
        channel=LoopChannel(length_m=L, refractive_index=N_FIBER,
                            loss_db=16.5, intrinsic_delay_s=3e-13),
        source=SourceModel(), detector=DetectorModel(),
        packet=SpectralPacket.from_wavelength(),
        duration_s=8.0, seed=2026,
        qkd=QkdSettings(pulses_per_window=2_000_000),
        wm=WmSettings(poll_interval_s=3.0, noise_sigma=0.0),
    )
    quiet = run_scenario(ScenarioScript(events=(), **base))
    pressed = run_scenario(ScenarioScript(events=(
        DisturbanceEvent(PressureParams(mass_kg=0.1), position_m=12000.0,
                         start_s=1.0),), **base))

    q_quiet = session_summary(quiet.key_records)["qber_pooled"]
    q_pressed = session_summary(pressed.key_records)["qber_pooled"]
    n = session_summary(pressed.key_records)["sifted_bits"]
    sigma_diff = math.sqrt(2 * q_quiet * (1 - q_quiet) / n)
    immune_ok = (abs(q_pressed - q_quiet) <= 3 * sigma_diff
                 and pressed.final_mode is SystemMode.KEY_DISTRIBUTION)
    poll_ok = bool(pressed.wm_readings) and all(
        abs(r["inferred_delay_s"] - 9.81e-18) < 1e-20
        for r in pressed.wm_readings)

    stormy = run_scenario(ScenarioScript(events=(
        pzt(5000.0, 3000.0, 0.6, start_s=3.0),), **base))
    kinds = [rec.kind for rec in stormy.log]
    breach_ok = EventKind.BREACH_DETECTED in kinds
    modes = [rec.mode for rec in stormy.log]
    sequence = [SystemMode.KEY_DISTRIBUTION, SystemMode.PERCEPTION_SENSING,
                SystemMode.LOCALIZING, SystemMode.REPORTING,
                SystemMode.AWAIT_RESET]
    order_ok = all(m in modes for m in sequence) and \
        [modes.index(m) for m in sequence] == \
        sorted(modes.index(m) for m in sequence)
    breach_qber = max(r.qber_estimate for r in stormy.key_records
                      if r.qber_estimate is not None)
    report_ok = bool(stormy.localization_reports) and \
        abs(stormy.localization_reports[0].position_m - 5000.0) < 200.0

    ok = immune_ok and poll_ok and breach_ok and order_ok and report_ok
    outcome(7, ok,
            f"quiet/pressed qber {100 * q_quiet:.2f}%/{100 * q_pressed:.2f}%"
            f", polls read 9.81 as: {poll_ok}, breach qber "
            f"{100 * breach_qber:.1f}% > 8%, sequence complete: {order_ok}, "
            f"position {stormy.localization_reports[0].position_m:.0f} m")
    assert ok


def test_criterion_8_oracle_equivalences():
    """Closed forms agree with their independent oracles."""
    rng = np.random.default_rng(42)
    quad_ok = True
    for _ in range(20):
        bias = rng.uniform(-math.pi, math.pi)
        eps = rng.uniform(-math.pi, math.pi)
        tau0 = rng.uniform(1e-14, 8e-13)
        sigma = rng.uniform(0.0, 3.0 / tau0)
        p = post_selection_probabilities(
            LoopChannel(length_m=L, intrinsic_delay_s=tau0),
            SpectralPacket(OMEGA, sigma), PostSelection(eps))
        numeric = spectral_port_probability(0.0, OMEGA, sigma, tau0, eps)
        quad_ok &= math.isclose(p.reflected, numeric, rel_tol=1e-8,
                                abs_tol=1e-12)

    invert_ok = True
    for dtau in np.geomspace(1e-18, 1e-16, 12):
        for eps_deg in (5.0, 10.0, 30.0, 60.0):
            eps = math.radians(eps_deg)
            if OMEGA * dtau >= eps:
                continue  # beyond the invertible working branch
            icr = exact_contrast_ratio(dtau, eps, OMEGA)
            err = abs(infer_delay(icr, eps, OMEGA) - dtau)
            invert_ok &= err < 1e-20

    taylor_ok = True
    channel = sensing_channel()
    from sagnacsim.perception import NullFrequency
    for f in np.geomspace(5001.0, 5e5, 25):
        for k in (1, 2, 3):
            rs = resolution(NullFrequency(float(f), k, 20.0), channel, 500.0)
            taylor_ok &= math.isclose(rs, first_order_span(f, k, N_FIBER,
                                                           500.0),
                                      rel_tol=0.05)
            span = two_sided_position_span(f, k, L, N_FIBER, 500.0)
            taylor_ok &= math.isclose(rs, span, rel_tol=1e-9)

    ok = quad_ok and invert_ok and taylor_ok
    outcome(8, ok, f"quadrature 20 tuples at 1e-8: {quad_ok}; "
                   f"delay inversion at 1e-20 s: {invert_ok}; "
                   f"resolution vs first-order span at 5%: {taylor_ok}")
    assert ok
