"""Correctness checks on the program's outputs.

Each check takes outputs as the program wrote them (CSV text, JSON, printed
lines, sampler draws) and the benchmark's own recomputation, and returns
what failed, so the benchmark's tests can feed it corrupted outputs.  No
check compares an output with a stored copy of an earlier output.
"""

from __future__ import annotations

import json
import math

import numpy as np

# A template row or command output is an operation; a row is keyed by
# (method, x, replication).

# Closed-form losses and infer summary losses must match the benchmark's
# recomputation to this absolute tolerance.
LOSS_TOLERANCE = 1e-6
# States whose greedy Q margin is below this are ties; their action is free.
TIE_GAP = 1e-9
# Sampler estimates may be this many standard errors off, plus a floor:
# importance sampling (delta-method errors) and Markov chains (batch means
# over BATCHES_PER_CHAIN batches of each chain).
N_SE = 4.0
IS_FLOOR = 2e-3
CHAIN_FLOOR = 1e-2
BATCHES_PER_CHAIN = 10


def parse_runs_csv(text: str):
    """Runs CSV -> (header, {key: row}), row = {line, total, tasks}.

    Unparsable numbers become nan, so they fail the range check rather than
    stopping the benchmark.
    """
    lines = text.rstrip("\n").split("\n")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        try:
            key = (cells[2], float(cells[3]), int(cells[1]))
        except (IndexError, ValueError):
            continue
        rows[key] = {"line": line, "total": _number(cells[4]),
                     "tasks": [_number(c) for c in cells[5:] if c != ""]}
    return lines[0], rows


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return math.nan


def check_rows(rows: dict, expected_keys, loss_cap: float) -> set:
    """Keys that are missing, non-finite, outside [0, loss_cap] per task, or
    whose total is not the sum of its task losses."""
    failed = set()
    for key in expected_keys:
        row = rows.get(key)
        if row is None or not row["tasks"]:
            failed.add(key)
            continue
        tasks = np.array(row["tasks"])
        if (not np.all(np.isfinite(tasks)) or not math.isfinite(row["total"])
                or np.any(tasks < 0.0) or np.any(tasks > loss_cap)
                or abs(tasks.sum() - row["total"]) > 1e-9 * max(1.0, abs(row["total"]))):
            failed.add(key)
    return failed


def parse_aggregate_csv(text: str) -> dict:
    lines = text.rstrip("\n").split("\n")
    header = lines[0].split(",")
    out = {}
    for line in lines[1:]:
        cells = dict(zip(header, line.split(",")))
        try:
            out[(cells["method"], float(cells["x"]))] = {
                name: _number(cells[name]) for name in header[3:]
            }
        except KeyError:
            continue
    return out


def recompute_aggregate(rows: dict) -> dict:
    """Mean and standard error of total and per-task loss per (method, x)."""
    groups = {}
    for (method, x, _), row in rows.items():
        groups.setdefault((method, x), []).append(row)
    out = {}
    for group, members in groups.items():
        totals = np.array([r["total"] for r in members])
        per_task = np.array([r["total"] / len(r["tasks"]) if r["tasks"] else math.nan
                             for r in members])
        n = len(members)

        def stderr(values):
            return float(values.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0

        out[group] = {"n_runs": float(n),
                      "mean_total_loss": float(totals.mean()),
                      "stderr_total_loss": stderr(totals),
                      "mean_task_loss": float(per_task.mean()),
                      "stderr_task_loss": stderr(per_task)}
    return out


def check_aggregate(rows: dict, aggregate_text: str) -> set:
    """(method, x) groups whose aggregate line is missing or disagrees with
    the recomputation from the runs CSV.  The CSVs carry 12 significant
    digits, so agreement is required to a relative 1e-8."""
    written = parse_aggregate_csv(aggregate_text)
    failed = set()
    for group, expected in recompute_aggregate(rows).items():
        got = written.get(group)
        if got is None:
            failed.add(group)
            continue
        for name, value in expected.items():
            if not (abs(got.get(name, math.nan) - value) <= 1e-8 * max(1.0, abs(value))):
                failed.add(group)
    return failed


def check_isolated(rows: dict, isolated_rows: dict) -> set:
    """Replication-0 keys whose line differs from a run of replication 0
    alone: rows that depended on the other replications."""
    return {key for key, row in rows.items()
            if key[2] == 0 and (key not in isolated_rows
                                or isolated_rows[key]["line"] != row["line"])}


def check_closed_form(rows: dict, reference: dict) -> set:
    """Keys whose per-task losses differ from the benchmark's own
    recomputation by more than ``LOSS_TOLERANCE``."""
    failed = set()
    for key, losses in reference.items():
        row = rows.get(key)
        if (row is None or len(row["tasks"]) != len(losses)
                or not np.all(np.abs(np.array(row["tasks"]) - np.array(losses)) <= LOSS_TOLERANCE)):
            failed.add(key)
    return failed


# --- samplers ---------------------------------------------------------------

def weighted_agreement(weights, indicator, exact: float):
    """Self-normalized importance estimate of a probability against its exact
    value, within ``N_SE`` delta-method standard errors plus ``IS_FLOOR``."""
    weights = np.asarray(weights, dtype=float)
    indicator = np.asarray(indicator, dtype=float)
    estimate = float(weights @ indicator)
    se = float(np.sqrt(np.sum(weights ** 2 * (indicator - estimate) ** 2)))
    tol = N_SE * se + IS_FLOOR
    return abs(estimate - exact) <= tol, estimate, tol


def chain_agreement(chains, exact: float):
    """Markov-chain estimate of a probability (uniform weights over the
    pooled chains) against its exact value, within ``N_SE`` batch-means
    standard errors plus ``CHAIN_FLOOR``."""
    batch_means = []
    for draws in chains:
        draws = np.asarray(draws, dtype=float)
        usable = (draws.shape[0] // BATCHES_PER_CHAIN) * BATCHES_PER_CHAIN
        batch_means.extend(draws[:usable].reshape(BATCHES_PER_CHAIN, -1).mean(axis=1))
    batch_means = np.array(batch_means)
    estimate = float(np.concatenate([np.asarray(c, dtype=float) for c in chains]).mean())
    se = float(batch_means.std(ddof=1) / math.sqrt(batch_means.shape[0]))
    tol = N_SE * se + CHAIN_FLOOR
    return abs(estimate - exact) <= tol, estimate, tol


# --- infer and show ---------------------------------------------------------

def posterior_means(posterior_path) -> dict:
    """Task id -> weighted mean reward, recomputed from a posterior file."""
    with open(posterior_path, "r", encoding="utf-8") as handle:
        header = json.loads(handle.readline())
        records = [json.loads(line) for line in handle if line.strip()]
    if header.get("format") == "mtpp-ensemble":
        weights = np.array([r["weight"] for r in records])
        rewards = np.array([r["rewards"] for r in records])
        return {tid: np.clip(weights @ rewards[:, m, :], 0.0, 1.0)
                for m, tid in enumerate(header["task_ids"])}
    hypotheses = np.array(header["hypotheses"])
    return {r["task_id"]: np.array(r["probabilities"]) @ hypotheses for r in records}


def check_summary(summary: dict, means: dict, env_planner, truth_reward,
                  imitator_policies: dict) -> list:
    """Problems with an ``infer`` summary, against the benchmark's own
    recomputation.

    ``means`` come from the posterior file, ``env_planner`` plans on the
    inference environment, ``truth_reward`` is the configured chain reward
    the losses are reported against, ``imitator_policies`` maps task id to
    the imitator policy recomputed from the demonstration file.
    """
    problems = []
    tasks = summary.get("tasks", {})
    if sorted(int(t) for t in tasks) != sorted(int(t) for t in means):
        return [f"summary tasks {sorted(tasks)} differ from the posterior's {sorted(means)}"]
    n_actions = env_planner.kernel.shape[1]
    for tid, mean in means.items():
        entry = tasks[str(tid)]
        reward = np.asarray(entry["posterior_mean_reward"], dtype=float)
        if reward.shape != mean.shape or not np.all(np.abs(reward - mean) <= 1e-9):
            problems.append(f"task {tid}: posterior_mean_reward differs from the posterior file")
            continue
        greedy = np.asarray(entry["greedy_actions"], dtype=int)
        actions, gaps = env_planner.greedy(np.clip(reward, 0.0, 1.0))
        decided = gaps >= TIE_GAP
        if greedy.shape != actions.shape or np.any(greedy[decided] != actions[decided]):
            problems.append(f"task {tid}: greedy_actions {greedy.tolist()} "
                            f"!= planner's {actions.tolist()}")
            continue
        chosen = np.eye(n_actions)[greedy]
        loss = env_planner.l1_loss(truth_reward, chosen)
        if not abs(entry["loss_vs_config_env"] - loss) <= LOSS_TOLERANCE:
            problems.append(f"task {tid}: loss_vs_config_env {entry['loss_vs_config_env']} "
                            f"!= {loss}")
        imitator_loss = env_planner.l1_loss(truth_reward, imitator_policies[tid])
        if not abs(entry["imitator_loss_vs_config_env"] - imitator_loss) <= LOSS_TOLERANCE:
            problems.append(f"task {tid}: imitator_loss_vs_config_env "
                            f"{entry['imitator_loss_vs_config_env']} != {imitator_loss}")
    return problems


def check_show(stdout: str, summary: dict) -> list:
    """Problems with ``show`` output: it must print each task's mean reward
    as the summary has it, to four decimals."""
    shown = {}
    for line in stdout.splitlines():
        head, sep, values = line.strip().partition(" mean reward: ")
        if sep and head.startswith("task "):
            shown[head[5:]] = [_number(v) for v in values.split()]
    problems = []
    for tid, entry in summary.get("tasks", {}).items():
        expected = np.asarray(entry["posterior_mean_reward"], dtype=float)
        got = np.asarray(shown.get(tid, []), dtype=float)
        if got.shape != expected.shape or not np.all(np.abs(got - expected) <= 5e-5 + 1e-9):
            problems.append(f"task {tid}: show printed {shown.get(tid)}")
    return problems
