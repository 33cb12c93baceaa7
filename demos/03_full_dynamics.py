"""Exact truncated-space dynamics of a scheduled gate versus the closed
forms: strong-drive convergence and cavity-state insensitivity at small,
fast settings (coarser than the acceptance runs).

Run: python3 demos/03_full_dynamics.py
"""

import time

from cavityphase import (
    cavity_robustness,
    channel_fidelity,
    ideal_ntcp,
    make_cavity_state,
    make_space,
    propagate_schedule,
    schedule_channel,
    schedule_method_a,
    solve_parameters,
)

CUTOFF = 4
TOL = 1e-5

print("full-dynamics gate fidelity vs drive strength (n = 1, vacuum):")
ideal = ideal_ntcp(1)
space = make_space(2, CUTOFF)
vacuum, _ = make_cavity_state("vacuum", CUTOFF)
for ratio in (10, 15, 30):
    start = time.time()
    schedule = schedule_method_a(solve_parameters(1.0, 0, ratio, 1))
    prop = propagate_schedule(space, schedule, tol=TOL)
    fid = channel_fidelity(schedule_channel(prop.propagator, vacuum), ideal.matrix)
    print(
        f"  omega/g = {ratio:>2}: fidelity = {fid:.6f} "
        f"(infidelity {1 - fid:.2e}, {prop.step_count} steps, "
        f"{time.time() - start:.1f}s)"
    )
print("the residual error is the dropped fast-oscillating coupling;")
print("it shrinks as the drive grows relative to detuning and coupling.")

print("\ncavity-state insensitivity (n = 1, omega = 30 g):")
schedule = schedule_method_a(solve_parameters(1.0, 0, 30, 1))
result = cavity_robustness(
    schedule, ["vacuum", "fock:1", "thermal:0.3"], tol=TOL, fock_cutoff=CUTOFF
)
for label, fid in result.fidelities.items():
    print(f"  {label:>12}: {fid:.6f}")
print(f"  spread = {result.spread:.2e}")
print("the closed-form gate contains no photon operators, so the ideal")
print("spread is zero; the full-dynamics spread is a strong-drive residual.")
