"""Prior families over rewards, softmax temperatures, policies and optimality.

A sampler's reward prior is a :class:`DirichletRewardPrior` or a
:class:`DiscreteRewardPrior`.  Both have ``n_states``, ``sample_batch(rng,
k)`` returning a ``(k, n_states)`` array (one draw is ``sample_batch(rng,
1)[0]``), and ``log_pdf(values)`` for the Metropolis-Hastings target, which
takes one ``(n_states,)`` vector (returning a float) or an ``(M, n_states)``
batch (returning ``(M,)``).  Its temperature prior is a
:class:`TemperaturePrior` or a :class:`FixedTemperature`, with the same
``sample_batch`` and ``log_pdf``, the last taking a float or an array.

The population level is a :class:`GammaHyperprior`, whose ``sample_batch(rng,
k)`` draws k population states as (concentrations, shapes, rates) arrays and
whose ``log_pdf(state)`` scores one state ``(concentration..., shape, rate)``
or a ``(k, n_states + 2)`` batch of them row by row, or a
:class:`FixedHyperprior`, plain data holding the priors every task shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mdp import StationaryPolicy

__all__ = [
    "DirichletRewardPrior",
    "DiscreteRewardPrior",
    "TemperaturePrior",
    "FixedTemperature",
    "GammaHyperprior",
    "FixedHyperprior",
    "PolicyDirichletPrior",
    "OptimalityPrior",
    "policy_posterior",
    "sample_policies",
]


def _positive_vector(values, name: str) -> np.ndarray:
    out = np.array(values, dtype=float)
    out.setflags(write=False)
    if out.ndim != 1 or out.shape[0] < 1:
        raise ValueError(f"{name} must be a non-empty vector, got shape {out.shape}")
    if not np.all(np.isfinite(out)) or np.any(out <= 0):
        raise ValueError(f"{name} entries must be finite and strictly positive")
    return out


def _gamma_log_norm(shape, rate):
    """Log-normalizer of the Gamma(shape, rate) density."""
    # Imported here: only the Metropolis-Hastings log densities need scipy,
    # and loading it at module scope triples every process's start-up time.
    from scipy.special import gammaln

    return shape * np.log(rate) - gammaln(shape)


def _gamma_log_pdf(x, shape, rate, log_norm=None):
    """Gamma(shape, rate) log-density of ``x``; ``log_norm``, if given, is
    ``_gamma_log_norm(shape, rate)`` computed beforehand."""
    from scipy.special import xlogy  # deferred, as in _gamma_log_norm

    x = np.asarray(x, dtype=float)
    if log_norm is None:
        log_norm = _gamma_log_norm(shape, rate)
    return log_norm + xlogy(shape - 1.0, x) - rate * x


def _dirichlet_log_norm(concentration):
    """Log-normalizer of the Dirichlet density over the last axis."""
    from scipy.special import gammaln  # deferred, as in _gamma_log_norm

    return gammaln(concentration.sum(axis=-1)) - gammaln(concentration).sum(axis=-1)


def _dirichlet_log_pdf(values, concentration, log_norm=None):
    """Dirichlet log-density of ``values`` (..., S) under ``concentration``
    (..., S), over the last axis; ``log_norm``, if given, is
    ``_dirichlet_log_norm(concentration)`` computed beforehand."""
    from scipy.special import xlogy  # deferred, as in _gamma_log_norm

    if log_norm is None:
        log_norm = _dirichlet_log_norm(concentration)
    # xlogy keeps alpha = 1 coordinates finite at the simplex boundary.
    return log_norm + xlogy(concentration - 1.0, values).sum(axis=-1)


# Generator.dirichlet stick-breaks a row whose largest concentration is
# below this, and normalizes standard gamma draws otherwise.
_DIRICHLET_STICK_BREAKING = 0.1


def _gamma_to_simplex(draws: np.ndarray) -> np.ndarray:
    """Scale standard gamma draws (K, S), in place, by the reciprocal of
    each row's left-to-right sum, as ``Generator.dirichlet`` does."""
    draws *= 1.0 / np.cumsum(draws, axis=1)[:, -1:]
    return draws


def _dirichlet_rows(rng, concentration) -> np.ndarray:
    """One Dirichlet draw per row of ``concentration`` (K, S), the same bits
    as ``[rng.dirichlet(row) for row in concentration]`` and leaving ``rng``
    at the same stream position.

    ``Generator.dirichlet`` draws a row in one of two ways.  When the row's
    largest concentration is at least 0.1 it draws S standard gammas and
    scales them by the reciprocal of their left-to-right sum.  Otherwise it
    stick-breaks: S - 1 draws ``v_j ~ Beta(a_j, a_{j+1} + ... + a_{S-1})``
    (tail sums accumulated right to left) give ``acc_j * v_j`` with ``acc``
    the running product of ``1 - v``, and the last coordinate is ``acc``.
    Each maximal run of rows of one kind takes one array call to
    ``standard_gamma`` or ``beta``, which consumes the stream as the rows'
    own calls would; the normalization and the products then run over all
    rows at once, with ``cumsum`` and ``cumprod`` keeping numpy's order of
    operations.  When no row stick-breaks, one ``standard_gamma`` call and
    the normalization are all.
    """
    conc = np.asarray(concentration, dtype=float)
    if conc.ndim != 2 or conc.shape[1] < 1:
        raise ValueError(f"concentration must have shape (rows, n_states), got {conc.shape}")
    if not np.all(np.isfinite(conc)) or np.any(conc <= 0):
        raise ValueError("concentration entries must be finite and strictly positive")
    n_rows, n_states = conc.shape
    small = conc.max(axis=1) < _DIRICHLET_STICK_BREAKING
    if not small.any():
        return _gamma_to_simplex(rng.standard_gamma(conc))
    # Beta parameters of the stick-breaking rows: each coordinate against
    # the sum of the coordinates after it.
    tails = np.cumsum(conc[:, :0:-1], axis=1)[:, ::-1]
    draws = np.empty((n_rows, n_states))
    bounds = np.concatenate([[0], np.flatnonzero(small[1:] != small[:-1]) + 1, [n_rows]])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if small[lo]:
            draws[lo:hi, :-1] = rng.beta(conc[lo:hi, :-1], tails[lo:hi])
        else:
            draws[lo:hi] = rng.standard_gamma(conc[lo:hi])
    gamma = ~small
    draws[gamma] = _gamma_to_simplex(draws[gamma])
    sticks = draws[small, :-1]
    # acc[:, j] is what is left of the stick before coordinate j.
    acc = np.cumprod(np.hstack([np.ones((sticks.shape[0], 1)), 1.0 - sticks]), axis=1)
    draws[small, :-1] = acc[:, :-1] * sticks
    draws[small, -1] = acc[:, -1]
    return draws


def _batch_result(values):
    """A float for a 0-d result, else the array."""
    return float(values) if np.ndim(values) == 0 else values


def _reward_batch(values, n_states: int) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] != n_states:
        raise ValueError("reward vector has the wrong length for this prior")
    return values


@dataclass(frozen=True)
class DirichletRewardPrior:
    """Dirichlet distribution over reward vectors on the probability simplex."""

    concentration: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "concentration", _positive_vector(self.concentration, "concentration")
        )

    @property
    def n_states(self) -> int:
        return self.concentration.shape[0]

    def sample_batch(self, rng, k: int) -> np.ndarray:
        return rng.dirichlet(self.concentration, size=k)

    def log_pdf(self, values):
        values = _reward_batch(values, self.n_states)
        return _batch_result(_dirichlet_log_pdf(values, self.concentration))


@dataclass(frozen=True)
class DiscreteRewardPrior:
    """Finite grid of reward vectors with atom probabilities.

    Used wherever the reward space is deliberately discretized, e.g. the
    two-point hypothesis setups whose posteriors can be enumerated exactly.
    """

    atoms: np.ndarray
    weights: np.ndarray = None

    def __post_init__(self):
        atoms = np.array(self.atoms, dtype=float)
        if atoms.ndim != 2 or atoms.shape[0] < 1:
            raise ValueError(f"atoms must have shape (n_atoms, n_states), got {atoms.shape}")
        if np.any(atoms < 0) or np.any(atoms > 1) or not np.all(np.isfinite(atoms)):
            raise ValueError("atom rewards must be finite and lie in [0, 1]")
        atoms.setflags(write=False)
        if self.weights is None:
            weights = np.full(atoms.shape[0], 1.0 / atoms.shape[0])
        else:
            weights = np.array(self.weights, dtype=float)
            if weights.shape != (atoms.shape[0],) or not (
                    np.all(np.isfinite(weights)) and np.all(weights > 0)):
                raise ValueError("weights must be one finite positive value per atom")
            weights = weights / weights.sum()
        weights.setflags(write=False)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    @property
    def n_states(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def sample_batch(self, rng, k: int) -> np.ndarray:
        return self.atoms[rng.choice(self.n_atoms, size=k, p=self.weights)]

    def atom_index(self, values):
        """Index of the atom matching ``values`` within 1e-12, or -1; an
        ``(M, n_states)`` batch gives an ``(M,)`` array."""
        values = _reward_batch(values, self.n_states)
        hits = np.all(np.abs(self.atoms - values[..., None, :]) <= 1e-12, axis=-1)
        index = np.where(hits.any(axis=-1), hits.argmax(axis=-1), -1)
        return int(index) if index.ndim == 0 else index

    def log_pdf(self, values):
        index = self.atom_index(values)
        logs = np.where(index >= 0, np.log(self.weights)[index], -np.inf)
        return _batch_result(logs)


@dataclass(frozen=True)
class TemperaturePrior:
    """Gamma(shape, rate) prior over the softmax temperature (mean shape/rate)."""

    shape: float
    rate: float

    def __post_init__(self):
        for name in ("shape", "rate"):
            value = float(getattr(self, name))
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
            object.__setattr__(self, name, value)

    def sample_batch(self, rng, k: int) -> np.ndarray:
        return rng.gamma(self.shape, size=k) / self.rate

    def log_pdf(self, eta):
        eta = np.asarray(eta, dtype=float)
        positive = eta > 0
        logs = np.where(
            positive, _gamma_log_pdf(np.where(positive, eta, 1.0), self.shape, self.rate), -np.inf
        )
        return _batch_result(logs)


@dataclass(frozen=True)
class FixedTemperature:
    """Point mass at a known temperature (degenerate prior)."""

    value: float

    def __post_init__(self):
        value = float(self.value)
        if not (np.isfinite(value) and value >= 0):
            raise ValueError(f"temperature must be finite and non-negative, got {value}")
        object.__setattr__(self, "value", value)

    def sample_batch(self, rng, k: int) -> np.ndarray:
        return np.full(k, self.value)

    def log_pdf(self, eta):
        # Density w.r.t. counting measure on the single atom; only ever
        # evaluated at the atom itself because the value is never moved.
        return _batch_result(np.zeros(np.shape(eta)))


# (shape, rate) of the Gamma law of the temperature prior's shape, and of its rate.
_TEMPERATURE_LAW = (1.0, 1.0)


@dataclass(frozen=True)
class GammaHyperprior:
    """Independent Gamma laws over a population state ``(concentration_1..S,
    shape, rate)``: the Dirichlet reward prior's concentrations, each under
    ``concentration_law`` (a (shape, rate) pair), and the temperature prior's
    shape and rate, each under Gamma(1, 1)."""

    n_states: int
    concentration_law: tuple = (1.0, 10.0)

    def __post_init__(self):
        if int(self.n_states) < 1:
            raise ValueError("n_states must be at least 1")
        object.__setattr__(self, "n_states", int(self.n_states))
        shape, rate = (float(v) for v in self.concentration_law)
        if not (shape > 0 and rate > 0 and np.isfinite(shape) and np.isfinite(rate)):
            raise ValueError("concentration_law must be a positive (shape, rate) pair")
        object.__setattr__(self, "concentration_law", (shape, rate))

    def sample_batch(self, rng, k: int):
        """Vectorized hyper draws: (concentrations (k, S), shapes (k,), rates (k,))."""
        conc = rng.gamma(self.concentration_law[0], size=(k, self.n_states))
        conc /= self.concentration_law[1]
        shapes = rng.gamma(_TEMPERATURE_LAW[0], size=k) / _TEMPERATURE_LAW[1]
        rates = rng.gamma(_TEMPERATURE_LAW[0], size=k) / _TEMPERATURE_LAW[1]
        return conc, shapes, rates

    def log_pdf(self, state):
        """Log-density of a population state ``(concentration..., shape, rate)``
        (a float), or of each row of a ``(k, n_states + 2)`` batch of them."""
        state = np.asarray(state, dtype=float)
        if state.ndim not in (1, 2) or state.shape[-1] != self.n_states + 2:
            raise ValueError(
                f"state must have shape ([k,] {self.n_states + 2}), got {state.shape}"
            )
        conc_norm, temp_norm = self._log_norms
        total = _gamma_log_pdf(state[..., :-2], *self.concentration_law, conc_norm).sum(axis=-1)
        total = total + _gamma_log_pdf(state[..., -2], *_TEMPERATURE_LAW, temp_norm)
        total = total + _gamma_log_pdf(state[..., -1], *_TEMPERATURE_LAW, temp_norm)
        return _batch_result(total)

    @cached_property
    def _log_norms(self):
        """Log-normalizers of the concentration law and of the temperature
        law, computed at the first ``log_pdf`` call: they load scipy."""
        return _gamma_log_norm(*self.concentration_law), _gamma_log_norm(*_TEMPERATURE_LAW)


@dataclass(frozen=True)
class FixedHyperprior:
    """Degenerate hyperprior: a known reward prior and temperature prior."""

    reward_prior: object
    temperature_prior: object


@dataclass(frozen=True)
class PolicyDirichletPrior:
    """Independent Dirichlet prior over each state's action distribution."""

    concentration: np.ndarray

    def __post_init__(self):
        conc = np.array(self.concentration, dtype=float)
        if conc.ndim != 2:
            raise ValueError(f"concentration must be (n_states, n_actions), got {conc.shape}")
        if not np.all(np.isfinite(conc)) or np.any(conc <= 0):
            raise ValueError("concentration entries must be finite and strictly positive")
        conc.setflags(write=False)
        object.__setattr__(self, "concentration", conc)

    @property
    def n_states(self) -> int:
        return self.concentration.shape[0]

    @property
    def n_actions(self) -> int:
        return self.concentration.shape[1]

    @classmethod
    def uniform(cls, n_states: int, n_actions: int, strength: float = 1.0) -> "PolicyDirichletPrior":
        return cls(np.full((n_states, n_actions), strength))

    def mean(self) -> StationaryPolicy:
        probs = self.concentration / self.concentration.sum(axis=1, keepdims=True)
        return StationaryPolicy(probs)


def policy_posterior(prior: PolicyDirichletPrior, counts) -> PolicyDirichletPrior:
    """Conjugate update: add a task's ``(S, A)`` (state, action) count matrix
    (``demo_counts`` of its demonstrations) to the prior.

    Rows of states never visited keep the prior concentration; an all-zero
    matrix returns the prior unchanged.
    """
    if np.shape(counts) != prior.concentration.shape:
        raise ValueError(f"counts must be a {prior.concentration.shape} matrix")
    return PolicyDirichletPrior(prior.concentration + counts)


def sample_policies(posterior: PolicyDirichletPrior, k: int, rng) -> np.ndarray:
    """Draw ``k`` policies at once; returns a ``(k, S, A)`` array."""
    out = np.empty((k, posterior.n_states, posterior.n_actions))
    for s, row in enumerate(posterior.concentration):
        out[:, s, :] = rng.dirichlet(row, size=k)
    return out


@dataclass(frozen=True)
class OptimalityPrior:
    """Exponential prior with rate ``c`` over the optimality slack epsilon."""

    rate: float = 1.0

    def __post_init__(self):
        rate = float(self.rate)
        if not (np.isfinite(rate) and rate > 0):
            raise ValueError(f"rate must be finite and positive, got {rate}")
        object.__setattr__(self, "rate", rate)
