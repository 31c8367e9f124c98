"""Learned memory closure vs an analytic one, on the chaotic slow-fast system.

Three slow variables are observed; the fast variable y is hidden.  Because
y relaxes quickly, an analytic homogenized 3-variable system exists and is
the natural baseline: it replaces y by its slaved value.  The demo trains
a memory network on observed histories alone, then measures both models
against the truth integrated from the same initial conditions: the l2
error of the slow variables at t = 2, 5, 10 and 20, averaged over five
runs, and its mean over the horizon.

Scaled down (2000 trajectories, 25 epochs, a horizon of 20 time units)
to finish in about five seconds.  At this scale the network loses: with
seed 5 its mean error over the horizon is 15.2 against 1.34 for the
homogenized closure, and it is already at 15 by t = 5.
"""

from memflow import data, net, rollout, train
from memflow import dynamics as dyn

SEED = 5
N_MEM = 60          # memory window 1.2 time units
EPSILON = 0.01

spec = dyn.make_system("example3", epsilon=EPSILON)
solver = dyn.SolverConfig(delta=0.02, substeps=20)
domain = dyn.default_domain(spec)

print("generating trajectories of the full 4-variable system ...")
trajs = data.generate_trajectories(spec, solver, domain, 2000, 100, seed=SEED)
ds = data.build_dataset(trajs, N_MEM, per_trajectory=5, seed=SEED)
print(f"dataset: J={ds.size} windows, input width {ds.d * (ds.n_mem + 1)}")

params0 = net.init_params(spec.d, N_MEM, (120, 120, 120), seed=SEED)
cfg = train.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=25, seed=SEED)
print(f"training {params0.flat.size} parameters ...")
model, report = train.train_model(params0, ds, cfg)
print(f"done in {report.wall_time:.1f}s, final loss {report.final_loss:.3e}")

print("comparing against the homogenized closure ...")
nn_errors, reduced_errors = rollout.compare_with_homogenized(
    model, spec, solver, domain, horizon_steps=1000,  # t = 20 at delta = 0.02
    n_runs=5, seed=SEED + 1,
)

print("\n  t     network err   homogenized err")
for t_mark in (2.0, 5.0, 10.0, 20.0):
    k = int(round(t_mark / solver.delta))
    print(f"{t_mark:5.1f}   {nn_errors[k]:.4e}    {reduced_errors[k]:.4e}")
print(f"\nmean over the horizon: network {nn_errors.mean():.4e}, "
      f"homogenized {reduced_errors.mean():.4e}")
print("(the homogenized system starts with an O(epsilon) handicap and "
      "drifts in phase; the network was fitted to the true flow)")
