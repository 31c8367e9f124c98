"""Memory-augmented neural flow maps for partially observed dynamical systems.

The package learns a one-step predictor for the observed subset of a
dynamical system's state variables.  Because unobserved variables induce
memory in the reduced dynamics, the predictor's input is not just the
current observed state but a window of recent history; the network adds a
learned increment to the newest state (a residual step), and iterating it
yields long-horizon forecasts.

Subpackages map onto the pipeline:

* :mod:`memflow.dynamics` -- benchmark systems, RK4 integration, matrix
  exponential, and the exact reduced-dynamics references for linear
  systems, which take the linear system spec itself.
* :mod:`memflow.data` -- trajectory generation and memory-window datasets.
* :mod:`memflow.net` -- the residual memory network with analytic
  gradients (plain numpy, no autodiff framework).
* :mod:`memflow.train` -- mean-squared loss and minibatch Adam training.
* :mod:`memflow.rollout` -- iterative prediction and its l2 errors, the
  memory-length sweep, and the explicit-Euler reference scheme for linear
  systems.
* :mod:`memflow.cli` -- config-driven command line driver with presets
  for the built-in benchmark systems.
"""

from memflow import data, dynamics, net, rollout, train

__version__ = "0.1.0"

__all__ = ["data", "dynamics", "net", "rollout", "train", "__version__"]
