"""Tour of the validation layer: every reference the learned models are
judged against, checked against something stronger.

Five acts:

1. The matrix exponential satisfies its semigroup and inverse identities.
2. The RK4 integrator converges at 4th order against the closed-form
   solution of the small linear system.
3. For linear systems the reduced dynamics of the observed block split
   exactly into Markov + memory-integral + propagated-initial-state
   terms; we check the split against a finite difference of the exact
   solution, for both the 2-variable and the 20-variable system.
4. The explicit-Euler reference scheme for the reduced dynamics shows
   its advertised first-order convergence once truncation effects are
   removed.
5. The exact reduced map L of a linear system, rolled out through the
   same loop as a trained network, tracks the integrated truth to
   round-off.

Runs in a few seconds; prints everything, writes nothing.
"""

import numpy as np

from memflow import dynamics as dyn
from memflow import rollout

rng = np.random.default_rng(2024)

print("== 1. matrix exponential identities ==")
a = rng.normal(size=(5, 5))
a /= max(1.0, np.linalg.norm(a, 2))
semigroup = np.abs(
    dyn.matrix_exponential(0.3 * a) @ dyn.matrix_exponential(0.7 * a)
    - dyn.matrix_exponential(a)
).max()
inverse = np.abs(
    dyn.matrix_exponential(a) @ dyn.matrix_exponential(-a) - np.eye(5)
).max()
print(f"semigroup residual: {semigroup:.2e}   inverse residual: {inverse:.2e}")

print("\n== 2. RK4 convergence order ==")
spec = dyn.make_system("example1", alpha=2.0)
x0 = np.array([1.3, -0.4])
exact = dyn.exact_linear_solution(spec, x0, 1.0)
print("substeps   error at t=1")
errors = []
for substeps in (1, 2, 4, 8):
    end = dyn.integrate_batch(spec, dyn.SolverConfig(0.02, substeps), x0[None], 50)
    errors.append(np.linalg.norm(end[0, -1] - exact))
    print(f"{substeps:8d}   {errors[-1]:.3e}")
slope = np.polyfit(np.log([0.02 / s for s in (1, 2, 4, 8)]), np.log(errors), 1)[0]
print(f"observed order: {slope:.3f}")

print("\n== 3. reduced-dynamics decomposition ==")
for name in ("example1", "example4"):
    sys_spec = dyn.make_system(name)
    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, size=sys_spec.n)
        t = rng.uniform(0.2, 1.2)
        got = dyn.linear_mz_rhs(sys_spec, x, t)
        h = 1e-5
        hi = dyn.exact_linear_solution(sys_spec, x, t + h)[: sys_spec.d]
        lo = dyn.exact_linear_solution(sys_spec, x, t - h)[: sys_spec.d]
        worst = max(worst, float(np.abs(got - (hi - lo) / (2 * h)).max()))
    print(f"{name}: max residual over 10 random (x0, t): {worst:.2e}")

print("\n== 4. Euler reference scheme, first-order rate ==")
print("delta      error at t=1")
for delta in (0.02, 0.01, 0.005):
    steps = int(round(1.0 / delta))
    seeds = np.zeros((steps + 1, 1))
    seeds[-1, 0] = 1.2  # window spans all of [0, t]; z(t<0) = 0 by convention
    traj = rollout.euler_damz(spec, seeds, steps, delta)
    ref = dyn.exact_linear_solution(spec, np.array([1.2, 0.0]), 1.0)[0]
    print(f"{delta:<8g}   {abs(traj[-1, 0] - ref):.3e}")
print("(each halving of delta should roughly halve the error)")

print("\n== 5. exact reduced map L, rolled out like a network ==")
solver = dyn.SolverConfig(0.02, 20)
for name, n_mem in (("example1", 10), ("example4", 30)):
    sys_spec = dyn.make_system(name)
    big_l, _ = dyn.exact_reduced_map(sys_spec, solver, n_mem)
    x0s = rng.uniform(-1.0, 1.0, size=(20, sys_spec.n))
    truth, _, errs = rollout.rollout_against_truth(
        rollout.LinearMap(big_l), sys_spec, solver, x0s, 500)
    scale = np.linalg.norm(truth, axis=-1).max()
    print(f"{name}, n_mem={n_mem}: max error over 20 runs of 500 steps "
          f"{errs.max():.2e} ({errs.max() / scale:.1e} of max |truth|)")
