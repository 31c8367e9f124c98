"""How much history does the damped pendulum need?

Only the angle is observed; the angular velocity is hidden.  A model with
too little memory cannot reconstruct the missing velocity from history
and its rollouts drift.  The sweep trains one model per memory length and
prints each model's mean rollout error up to t=10.

The sweep takes the example2 preset (alpha=0.1, beta=8.91; 5 windows from
each trajectory of 50 samples) with ``dataclasses.replace`` for the
smaller settings: 1500 trajectories and 40 epochs, so the whole sweep
takes about 4 s on 2 cores, and an evaluation horizon of t=10.  Every
cell is that config with its own n_mem.  At seed 3 the error is 49 at
n_mem 1, 0.48 at n_mem 3, 0.48 at n_mem 10 and 0.28 at n_mem 20.  One
step of history is far too few.  Past that, one seed does not rank the
memory lengths: seed 5 gives 10.5, 0.46, 0.60 and 0.14.
"""

import math
from dataclasses import replace

from memflow import cli, rollout

SEED = 3

cfg = replace(cli.preset_config("example2"), n_traj=1500, epochs=40, eval_horizon=10.0,
              seed=cli.stage_seed(SEED, "sweep"))
cells = rollout.memory_sweep(cfg, [1, 3, 10, 20])

print("n_mem   T_M     mean rollout error (t <= 10)")
for cell in cells:
    bar = "#" * max(1, int(round(-10 * math.log10(cell.mean_error))))
    print(f"{cell.n_mem:5d}   {cell.memory_length:<5g}   {cell.mean_error:.4e}  {bar}")
best = min(cells, key=lambda cell: cell.mean_error)
print(f"\nlowest error at n_mem={best.n_mem} (T_M={best.memory_length:g}); "
      "too short a history cannot recover the hidden velocity")
