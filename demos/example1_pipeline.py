"""End-to-end walkthrough on the small linear system, library API only.

The observed variable is x1 of a 2-D linear system; x2 is never shown to
the learner.  We generate minimal-length trajectories (each contributes a
single training window), train the residual memory network, and roll it
out against the closed-form solution.

Scaled down from the full preset so it finishes in a few seconds.  At this
scale the learned map drifts away from the decaying solution: the demo
prints a time-averaged rollout error of about 0.831 (1.04 at t = 20,
where the exact value is 3e-5).  ROADMAP item 7's stability check is
meant to explain such drift.
"""

import numpy as np

from memflow import data, net, rollout, train
from memflow import dynamics as dyn

SEED = 7
N_MEM = 30          # memory window 0.6 time units at delta = 0.02
N_TRAJ = 5000
HIDDEN = (30, 30, 30)

spec = dyn.make_system("example1", alpha=2.0)
solver = dyn.SolverConfig(delta=0.02, substeps=20)
domain = dyn.default_domain(spec)

print(f"system: {spec.name} (n={spec.n}, observed d={spec.d}), "
      f"memory steps {N_MEM}")

trajs = data.generate_trajectories(
    spec, solver, domain, N_TRAJ, N_MEM + 2, seed=SEED
)
ds = data.build_dataset(trajs, N_MEM, per_trajectory=1, seed=SEED)
print(f"dataset: J={ds.size} windows of width {ds.d * (ds.n_mem + 1)}")

params0 = net.init_params(spec.d, N_MEM, HIDDEN, seed=SEED)
n_params = params0.flat.size
print(f"network: {n_params} parameters "
      f"(data/parameter ratio {ds.size / n_params:.1f})")

cfg = train.TrainConfig(learning_rate=1e-3, batch_size=64, epochs=30, seed=SEED)
model, report = train.train_model(params0, ds, cfg)
print(f"trained {cfg.epochs} epochs in {report.wall_time:.1f}s, "
      f"final loss {report.final_loss:.3e}")

# rollout to t = 20 from an initial condition the model has never seen,
# seeded with the first N_MEM + 1 exact observed states
x0 = np.array([-0.87, 0.65])
steps_total = int(round(20.0 / solver.delta))
reference = dyn.exact_linear_trajectory(spec, x0, solver.delta, steps_total)[:, :1]
res = rollout.rollout(model, reference[None, : N_MEM + 1], steps_total - N_MEM)
predicted = res.states[0]  # the one run of the batch
errors = np.linalg.norm(predicted - reference, axis=-1)  # sample k at k * delta

print("\n  t      predicted   exact       |error|")
for t_mark in (1.0, 5.0, 10.0, 20.0):
    k = int(round(t_mark / solver.delta))
    print(f"{k * solver.delta:5.1f}   {predicted[k, 0]: .6f}   "
          f"{reference[k, 0]: .6f}   {errors[k]:.2e}")
print(f"\ntime-averaged error after the seed block: "
      f"{errors[N_MEM + 1:].mean():.3e}")
