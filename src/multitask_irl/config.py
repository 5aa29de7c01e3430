"""Plain-text experiment configuration: one ``key = value`` pair per line.

Blank lines and lines starting with ``#`` are ignored.  Every key must be in
the registry below; unknown or duplicate keys raise ConfigError naming the
offending key.  List values are comma separated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ConfigError", "CONFIG_KEYS", "parse_config", "load_config", "describe_keys"]


class ConfigError(Exception):
    """Raised for malformed configuration text or out-of-range values."""


def _parse_int(minimum):
    def parse(key, text):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{key}: expected an integer, got {text!r}")
        if value < minimum:
            raise ConfigError(f"{key}: must be at least {minimum}, got {value}")
        return value
    return parse


def _parse_float(minimum=None, maximum=None, *, exclusive_max=False, exclusive_min=False):
    def parse(key, text):
        try:
            value = float(text)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {text!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value}")
        if minimum is not None and (value < minimum or (exclusive_min and value == minimum)):
            raise ConfigError(f"{key}: must be greater than {minimum}, got {value}"
                              if exclusive_min else
                              f"{key}: must be at least {minimum}, got {value}")
        if maximum is not None and (value > maximum or (exclusive_max and value == maximum)):
            raise ConfigError(f"{key}: must be less than {maximum}, got {value}"
                              if exclusive_max else
                              f"{key}: must be at most {maximum}, got {value}")
        return value
    return parse


def _parse_str(key, text):
    if not text:
        raise ConfigError(f"{key}: value must not be empty")
    return text


def _parse_list(element_parser):
    def parse(key, text):
        items = [part.strip() for part in text.split(",")]
        if any(not part for part in items):
            raise ConfigError(f"{key}: empty element in list {text!r}")
        return tuple(element_parser(key, part) for part in items)
    return parse


@dataclass(frozen=True)
class _Key:
    parse: object
    help: str


CONFIG_KEYS = {
    "experiment": _Key(_parse_str, "experiment template name"),
    "seed": _Key(_parse_int(0), "master seed for all substreams"),
    "replications": _Key(_parse_int(1), "independent seeded runs"),
    "out_dir": _Key(_parse_str, "directory for CSV output"),
    "discount": _Key(_parse_float(0.0, 1.0, exclusive_max=True), "discount factor"),
    "chain_states": _Key(_parse_int(2), "chain length"),
    "chain_slip": _Key(_parse_float(0.0, 1.0), "chain slip probability"),
    "chain_rewards": _Key(_parse_list(_parse_float(0.0, 1.0)), "per-state chain rewards"),
    "demo_length": _Key(_parse_int(1), "steps per demonstration"),
    "demo_epsilon": _Key(_parse_float(0.0, 1.0), "demonstrator exploration mass"),
    "demo_eta": _Key(_parse_float(0.0), "demonstrator softmax temperature"),
    "n_tasks": _Key(_parse_int(1), "number of tasks"),
    "total_demos": _Key(_parse_int(1), "demonstrations shared across tasks"),
    "sample_budgets": _Key(_parse_list(_parse_int(1)), "sweep of sampler budgets"),
    "mh_chain_counts": _Key(_parse_list(_parse_int(1)), "sweep of chain counts"),
    "task_counts": _Key(_parse_list(_parse_int(1)), "sweep of task counts"),
    "temperature_values": _Key(_parse_list(_parse_float(0.0)), "sweep of temperatures"),
    "mc_samples": _Key(_parse_int(1), "importance samples"),
    "mh_iterations": _Key(_parse_int(1), "total Markov chain iterations"),
    "mh_chains": _Key(_parse_int(1), "parallel chains sharing the budget"),
    "burn_in_fraction": _Key(_parse_float(0.0, 1.0, exclusive_max=True), "discarded chain prefix"),
    "reward_step": _Key(_parse_float(0.0, exclusive_min=True), "reward proposal sharpness"),
    "temperature_step": _Key(_parse_float(0.0, exclusive_min=True), "temperature step size"),
    "hyper_step": _Key(_parse_float(0.0, exclusive_min=True), "hyperparameter step size"),
    "n_hypotheses": _Key(_parse_int(1), "reward hypothesis set size"),
    "optimality_rate": _Key(_parse_float(0.0, exclusive_min=True), "slack prior rate"),
    "policy_prior_strength": _Key(_parse_float(0.0, exclusive_min=True), "policy prior mass"),
    "mwal_iterations": _Key(_parse_int(1), "feature-matching game rounds"),
    "mdp_states": _Key(_parse_int(2), "random MDP state count"),
    "mdp_actions": _Key(_parse_int(1), "random MDP action count"),
    "transition_concentration": _Key(_parse_float(0.0, exclusive_min=True),
                                     "transition row concentration"),
    "hyper_rate": _Key(_parse_float(0.0, exclusive_min=True),
                       "rate of the concentration hyperprior"),
    "methods": _Key(_parse_list(_parse_str), "methods to run"),
}


def parse_config(text: str) -> dict:
    """Parse configuration text into a typed mapping."""
    values = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {number}: expected 'key = value', got {raw!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {number}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {number}: duplicate key {key!r}")
        values[key] = CONFIG_KEYS[key].parse(key, rest.strip())
    chains, iterations = values.get("mh_chains"), values.get("mh_iterations")
    if chains is not None and iterations is not None and chains > iterations:
        raise ConfigError(
            f"mh_chains = {chains} exceeds mh_iterations = {iterations}: "
            "every chain needs at least one iteration"
        )
    return values


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise ConfigError(f"cannot read config {path}: {error}")
    return parse_config(text)


def describe_keys():
    """(name, help) pairs for every recognized key, sorted by name."""
    return [(name, key.help) for name, key in sorted(CONFIG_KEYS.items())]
