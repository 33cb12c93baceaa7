"""One-off run that produces the derived regression numbers frozen into
the acceptance suite: the strong-drive convergence fidelities, the
cavity-state spread, and the factorization-oracle residuals.

Run from the repository root with the package importable, e.g.
``PYTHONPATH=src python scripts/freeze_regressions.py``.  The strong-drive
builder is the test suite's own ``rwa_hamiltonian`` from ``tests/conftest.py``.
"""

import sys
import time
from pathlib import Path

import numpy as np

from cavityphase.analysis import (
    cavity_robustness,
    make_cavity_state,
    propagate_schedule,
    schedule_channel,
)
from cavityphase.effective import factorized_propagator, ideal_ntcp
from cavityphase.hilbert import channel_fidelity, make_space
from cavityphase.integrator import propagate
from cavityphase.protocol import schedule_method_a, solve_parameters

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from conftest import rwa_hamiltonian  # noqa: E402

TWO_PI = 2.0 * np.pi


def criterion7():
    print("== criterion 7: strong-drive convergence, n=1, vacuum, cutoff 5, tol 1e-6")
    ideal = ideal_ntcp(1)
    space = make_space(2, 5)
    vacuum, _ = make_cavity_state("vacuum", 5)
    for ratio in (10, 15, 50):
        t0 = time.time()
        params = solve_parameters(1.0, 0, ratio, 1)
        sched = schedule_method_a(params)
        prop = propagate_schedule(space, sched, tol=1e-6)
        f = channel_fidelity(schedule_channel(prop.propagator, vacuum), ideal.matrix)
        print(
            f"  ratio {ratio:>3}: fidelity = {f!r}  infidelity = {1 - f:.6e} "
            f"steps = {prop.step_count} defect = {prop.max_unitarity_defect:.2e} "
            f"leak = {prop.truncation_leakage:.2e}  [{time.time() - t0:.1f}s]"
        )


def criterion8():
    print("== criterion 8: cavity-state insensitivity, n=1, ratio 50, cutoff 6, tol 1e-6")
    params = solve_parameters(1.0, 0, 50, 1)
    sched = schedule_method_a(params)
    t0 = time.time()
    result = cavity_robustness(
        sched, ["vacuum", "fock:1", "coherent:1"], tol=1e-6, fock_cutoff=6
    )
    for label, f in result.fidelities.items():
        print(f"  {label:>12}: {f!r}")
    print(f"  spread = {result.spread!r}   [{time.time() - t0:.1f}s]")


def criterion6():
    print("== criterion 6: factorization oracle, g = 0.1|delta|, cutoff 6")
    g, delta = 0.1, -1.0
    tau = TWO_PI / abs(delta)
    closed = factorized_propagator(make_space(1, 6), g, delta, tau)
    for ref_cutoff in (12, 16):
        t0 = time.time()
        big = make_space(1, ref_cutoff)
        r = propagate(rwa_hamiltonian(big, g, delta), 0.0, tau, 2e-7)
        cd = ref_cutoff + 1
        keep = (np.arange(big.dim) % cd) <= 6
        block = r.propagator.entries[np.ix_(keep, keep)]
        err = np.max(np.abs(block - closed.entries))
        print(
            f"  reference cutoff {ref_cutoff}: max|restricted - closed| = {err:.3e} "
            f"steps = {r.step_count}  [{time.time() - t0:.1f}s]"
        )


if __name__ == "__main__":
    criterion6()
    criterion7()
    criterion8()
