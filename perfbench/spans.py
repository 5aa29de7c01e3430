"""Span tracing around the public functions of ``multitask_irl``.

The tracer wraps each function listed in ``TRACED`` wherever a
``multitask_irl`` module binds it, so calls made inside the package are
seen as well as calls from the benchmark.  Each call records a span (name,
parent span, start, end, work count) in memory; ``layer_metrics`` turns the
spans into per-function calls, self times and unit costs.

Tracing is installed only around traced rounds and removed afterwards, so
untraced rounds in the same process run the program's own functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

import numpy as np


def _task_count(demos) -> int:
    return len({demo.task_id for demo in demos})


def _batch_rewards(a) -> int:
    rewards = np.asarray(a["rewards"])
    return rewards.shape[0] if rewards.ndim == 2 else 1


def _mh_task_iterations(a) -> int:
    n_chains = int(a["n_chains"])
    return (int(a["n_iterations"]) // n_chains) * n_chains * _task_count(a["demos"])


def _loss_pairs(a) -> int:
    policies = a["policies"]
    single = isinstance(policies, np.ndarray) and policies.ndim == 2
    return (1 if single else len(policies)) * a["hypotheses"].n_hypotheses


# (module, attribute path, work count from the bound arguments or None)
TRACED = (
    ("mdp", "value_iteration", None),
    ("mdp", "policy_evaluation", None),
    ("mdp", "batch_solve_optimal", _batch_rewards),
    ("mdp", "batch_policy_values", None),
    ("mdp", "simulate", lambda a: int(a["horizon"])),
    ("priors", "policy_posterior", None),
    ("priors", "sample_policies", None),
    ("tasks", "make_demonstrator", None),
    ("tasks", "make_random_mdp_population", None),
    ("mtpp", "mtpp_mc", lambda a: int(a["n_samples"]) * _task_count(a["demos"])),
    ("mtpp", "mtpp_mh", _mh_task_iterations),
    ("mtpp", "posterior_policy", None),
    ("mtpp", "PosteriorEnsemble.to_jsonl", None),
    ("mtpp", "PosteriorEnsemble.from_jsonl", None),
    ("mtpo", "mtpo_mc", None),
    ("mtpo", "build_loss_matrix", _loss_pairs),
    ("mtpo", "reward_posterior", None),
    ("mtpo", "posterior_value_estimate", None),
    ("mtpo", "MtpoResult.to_jsonl", None),
    ("baselines", "imitator", None),
    ("baselines", "mwal", lambda a: int(a["n_iterations"])),
    ("bench", "run_experiment", None),
    ("bench", "write_runs_csv", None),
    ("bench", "write_aggregate_csv", None),
    ("config", "load_config", None),
    ("io", "read_demonstrations", None),
    ("cli", "main", None),
)

TRACED_NAMES = tuple(f"{module}.{path}" for module, path, _ in TRACED)

# Unit costs: (metric, traced name, unit, seconds-to-unit scale).  They
# divide the function's inclusive time (children included) by its work count.
UNIT_COSTS = (
    ("mdp.batch_solve_optimal.us_per_reward", "mdp.batch_solve_optimal", "us", 1e6),
    ("mtpp.mtpp_mc.us_per_task_sample", "mtpp.mtpp_mc", "us", 1e6),
    ("mtpp.mtpp_mh.us_per_task_iteration", "mtpp.mtpp_mh", "us", 1e6),
    ("mtpo.build_loss_matrix.ns_per_pair", "mtpo.build_loss_matrix", "ns", 1e9),
    ("baselines.mwal.ms_per_round", "baselines.mwal", "ms", 1e3),
)
# Work counts: traced name -> metric.
WORK_COUNTS = {
    "mdp.batch_solve_optimal": "mdp.batch_solve_optimal.rewards",
    "mdp.simulate": "mdp.simulate.steps",
    "mtpp.mtpp_mc": "mtpp.mtpp_mc.task_samples",
    "mtpp.mtpp_mh": "mtpp.mtpp_mh.task_iterations",
    "mtpo.build_loss_matrix": "mtpo.build_loss_matrix.pairs",
    "baselines.mwal": "baselines.mwal.rounds",
}


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    names = []
    for name in TRACED_NAMES:
        names.append((f"{name}.calls", "count"))
        names.append((f"{name}.self_s", "s"))
    names += [(work, "count") for work in WORK_COUNTS.values()]
    names.append(("mdp.value_iteration.ms_per_call", "ms"))
    names += [(metric, unit) for metric, _, unit, _ in UNIT_COSTS]
    names.append(("mtpp.mtpp_mh.solves_per_proposal", "ratio"))
    names.append(("trace.overhead_s", "s"))
    return names


class Tracer:
    """Records spans in memory: [name, parent index, start, end, work]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._installed = []

    def _wrap(self, name, function, work):
        signature = inspect.signature(function)
        spans, stack = self.spans, self._stack

        @functools.wraps(function)
        def traced(*args, **kwargs):
            amount = 0
            if work is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    amount = work(bound.arguments)
                except (KeyError, TypeError, AttributeError, ValueError):
                    amount = 0
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, amount]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        """Wrap every traced function that exists; a function a later change
        removed is skipped and reports 0 calls."""
        package = [m for key, m in sorted(sys.modules.items())
                   if key == "multitask_irl" or key.startswith("multitask_irl.")]
        for module_name, path, work in TRACED:
            module = importlib.import_module(f"multitask_irl.{module_name}")
            name = f"{module_name}.{path}"
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name, None)
                raw = owner.__dict__.get(method) if owner is not None else None
                if raw is None:
                    continue
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, work))
                else:
                    wrapped = self._wrap(name, raw, work)
                self._installed.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, path, None)
            if original is None:
                continue
            wrapped = self._wrap(name, original, work)
            for holder in package:
                if getattr(holder, path, None) is original:
                    self._installed.append((holder, path, original))
                    setattr(holder, path, wrapped)

    def remove(self):
        for holder, attribute, original in reversed(self._installed):
            setattr(holder, attribute, original)
        self._installed.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    def absorb(self, spans):
        """Append spans recorded by another process, fixing their parents."""
        base = len(self.spans)
        self.spans.extend([name, parent + base if parent >= 0 else -1, start, end, amount]
                          for name, parent, start, end, amount in spans)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def layer_metrics(spans, rounds: int, overhead_s: float) -> dict:
    """Per-layer metrics per traced round from spans of ``rounds`` rounds.

    Parents index into ``spans``; spans of other processes are appended
    with ``Tracer.absorb``, which offsets them.
    """
    calls, self_time, total, work = {}, {}, {}, {}
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] >= 0:
            child_time[span[1]] += span[3] - span[2]
    mh_solves = 0
    for index, (name, parent, start, end, amount) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + (end - start) - child_time[index]
        total[name] = total.get(name, 0.0) + (end - start)
        work[name] = work.get(name, 0) + amount
        if name == "mdp.batch_solve_optimal":
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != "mtpp.mtpp_mh":
                ancestor = spans[ancestor][1]
            if ancestor >= 0:
                mh_solves += amount
    out = {}
    for name in TRACED_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0) / rounds
        out[f"{name}.self_s"] = self_time.get(name, 0.0) / rounds
    for name, metric in WORK_COUNTS.items():
        out[metric] = work.get(name, 0) / rounds
    vi_calls = calls.get("mdp.value_iteration", 0)
    out["mdp.value_iteration.ms_per_call"] = (
        1e3 * total.get("mdp.value_iteration", 0.0) / vi_calls if vi_calls else 0.0)
    for metric, name, _, scale in UNIT_COSTS:
        amount = work.get(name, 0)
        out[metric] = scale * total.get(name, 0.0) / amount if amount else 0.0
    proposals = work.get("mtpp.mtpp_mh", 0)
    out["mtpp.mtpp_mh.solves_per_proposal"] = mh_solves / proposals if proposals else 0.0
    out["trace.overhead_s"] = overhead_s
    return out

