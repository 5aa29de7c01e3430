"""Multitask Bayesian inverse reinforcement learning.

Several demonstrators, each solving its own task, are explained jointly: a
shared population prior ties the per-task reward functions and softmax
temperatures together, so evidence about one task sharpens inference about
the others.  Two model families are provided, a reward-and-temperature
posterior with Monte Carlo and Metropolis-Hastings samplers, and a
policy-optimality posterior over a finite reward hypothesis set, plus
single-task baselines, benchmark environments, and a seeded experiment
harness.

Each module's ``__all__`` is the one list of its public names; the package
re-exports them all.
"""

from . import baselines, bench, config, io, mdp, mtpo, mtpp, priors, seeding, tasks
from .baselines import *
from .bench import *
from .config import *
from .io import *
from .mdp import *
from .mtpo import *
from .mtpp import *
from .priors import *
from .seeding import *
from .tasks import *

__version__ = "0.1.0"

__all__ = [name for module in (baselines, bench, config, io, mdp, mtpo, mtpp, priors, seeding,
                               tasks) for name in module.__all__]
