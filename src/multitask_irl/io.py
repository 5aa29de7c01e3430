"""Demonstration and posterior files.

A demonstrations file is plain text.  The first data line is a header
``n_states n_actions``; every following line is one trajectory: a task id,
then alternating state and action integers.  Blank lines and lines starting
with ``#`` are ignored.

A posterior file is JSON lines.  The first line is a header object whose
``format`` names the model: ``mtpp-ensemble`` for a :class:`PosteriorEnsemble`,
followed by one record per weighted joint sample, or ``mtpo-posterior`` for
an :class:`MtpoResult`, followed by one record per task.  The header also
carries the task ids, the shapes or the hypothesis set, and the metadata.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .mdp import Demonstration
from .mtpo import MtpoResult, RewardHypothesisSet, RewardPosterior
from .mtpp import PosteriorEnsemble

__all__ = ["DataError", "read_demonstrations", "write_demonstrations", "read_posterior",
           "write_posterior"]


class DataError(Exception):
    """Raised for malformed or out-of-range demonstration or posterior data."""


def _data_lines(text):
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield number, line


def read_demonstrations(path):
    """Read ``(n_states, n_actions, demonstrations)`` from a text file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise DataError(f"cannot read demonstrations {path}: {error}")
    lines = _data_lines(text)
    try:
        number, header = next(lines)
    except StopIteration:
        raise DataError(f"{path}: missing 'n_states n_actions' header")
    fields = header.split()
    if len(fields) != 2:
        raise DataError(f"{path} line {number}: header must be 'n_states n_actions'")
    try:
        n_states, n_actions = (int(f) for f in fields)
    except ValueError:
        raise DataError(f"{path} line {number}: header must hold two integers")
    if n_states < 1 or n_actions < 1:
        raise DataError(f"{path} line {number}: state and action counts must be positive")
    demos = []
    for number, line in lines:
        fields = line.split()
        try:
            values = [int(f) for f in fields]
        except ValueError:
            raise DataError(f"{path} line {number}: non-integer entry in trajectory")
        if len(values) < 3 or len(values) % 2 == 0:
            raise DataError(
                f"{path} line {number}: expected a task id then state/action pairs"
            )
        task_id, rest = values[0], values[1:]
        try:
            demo = Demonstration(task_id=task_id, states=rest[0::2], actions=rest[1::2])
            demo.check_bounds(n_states, n_actions)
        except OverflowError:
            raise DataError(f"{path} line {number}: a state or action index is out of range")
        except ValueError as error:
            raise DataError(f"{path} line {number}: {error}")
        demos.append(demo)
    if not demos:
        raise DataError(f"{path}: no trajectories after the header")
    return n_states, n_actions, demos


def write_demonstrations(path, n_states: int, n_actions: int, demos) -> None:
    demos = list(demos)
    lines = [f"{int(n_states)} {int(n_actions)}"]
    for demo in demos:
        demo.check_bounds(n_states, n_actions)
        pairs = np.empty(2 * demo.states.shape[0], dtype=int)
        pairs[0::2] = demo.states
        pairs[1::2] = demo.actions
        lines.append(" ".join([str(int(demo.task_id))] + [str(v) for v in pairs]))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def write_posterior(path, posterior) -> None:
    """Write a :class:`PosteriorEnsemble` or an :class:`MtpoResult` as JSON
    lines: a header, then one record per sample or per task."""
    task_ids = list(posterior.task_ids)
    if isinstance(posterior, PosteriorEnsemble):
        header = {"format": "mtpp-ensemble", "task_ids": task_ids,
                  "n_samples": int(posterior.n_samples),
                  "n_states": int(posterior.rewards.shape[2])}
        records = ({"weight": float(weight), "rewards": rewards.tolist(),
                    "temperatures": temperatures.tolist(),
                    "log_likelihoods": log_likelihoods.tolist()}
                   for weight, rewards, temperatures, log_likelihoods in
                   zip(posterior.weights, posterior.rewards, posterior.temperatures,
                       posterior.log_likelihoods))
    elif isinstance(posterior, MtpoResult):
        header = {"format": "mtpo-posterior", "task_ids": task_ids,
                  "hypotheses": posterior.hypotheses.values.tolist(),
                  "measure": posterior.hypotheses.measure.tolist()}
        records = ({"task_id": int(tid), "probabilities": post.probabilities.tolist()}
                   for tid, post in zip(posterior.task_ids, posterior.posteriors))
    else:
        raise TypeError(f"cannot write a {type(posterior).__name__} as a posterior file")
    header["metadata"] = {k: v for k, v in posterior.metadata.items() if _json_safe(v)}
    with open(path, "w", encoding="utf-8") as handle:
        for entry in chain([header], records):
            handle.write(json.dumps(entry) + "\n")


def read_posterior(path):
    """Read a posterior file: a :class:`PosteriorEnsemble` or an
    :class:`MtpoResult`, as its header's ``format`` names.  Raises
    :class:`DataError`, naming the file, for a file that cannot be read or
    whose contents are malformed or out of range."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            records = [json.loads(line) for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise DataError(f"cannot read posterior file {path}: {error}")
    kind = header.get("format") if isinstance(header, dict) else None
    if kind not in ("mtpp-ensemble", "mtpo-posterior"):
        raise DataError(f"{path}: unrecognized posterior format {kind!r}")
    try:
        if not all(isinstance(record, dict) for record in records):
            raise ValueError("every record must be a JSON object")
        task_ids = header["task_ids"]
        if not isinstance(task_ids, list) or not all(_is_int(tid) for tid in task_ids):
            raise ValueError("'task_ids' must be a list of integers")
        # Each id must exceed the one before it, and the first must exceed -1.
        if any(tid <= previous for previous, tid in zip([-1] + task_ids, task_ids)):
            raise ValueError(
                f"'task_ids' must be non-negative and strictly ascending, got {task_ids}")
        task_ids = tuple(task_ids)
        metadata = header.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError("'metadata' must be an object")
        if kind == "mtpp-ensemble":
            return _read_ensemble(header, records, task_ids, dict(metadata))
        return _read_mtpo(header, records, task_ids, dict(metadata))
    except KeyError as error:
        raise DataError(f"{path}: missing key {error}") from None
    except (TypeError, ValueError) as error:
        raise DataError(f"{path}: {error}") from None


def _read_ensemble(header, records, task_ids, metadata) -> PosteriorEnsemble:
    for key in ("n_samples", "n_states"):
        if not _is_int(header[key]):
            raise ValueError(f"{key!r} must be an integer")
    if len(records) != header["n_samples"]:
        raise ValueError(f"header promises {header['n_samples']} samples, found {len(records)}")
    shape = (len(records), len(task_ids))
    return PosteriorEnsemble(
        task_ids=task_ids,
        weights=_stack(records, "weight", shape[:1]),
        rewards=_stack(records, "rewards", shape + (header["n_states"],)),
        temperatures=_stack(records, "temperatures", shape),
        log_likelihoods=_stack(records, "log_likelihoods", shape),
        metadata=metadata,
    )


def _read_mtpo(header, records, task_ids, metadata) -> MtpoResult:
    found = tuple(record["task_id"] for record in records)
    if not all(_is_int(tid) for tid in found):
        raise ValueError("every record's 'task_id' must be an integer")
    if found != task_ids:
        raise ValueError(f"header lists tasks {list(task_ids)}, records are for {list(found)}")
    # A null measure is malformed here, not the counting measure.
    hypotheses = RewardHypothesisSet(_numbers(header["hypotheses"], "hypotheses"),
                                     _numbers(header["measure"], "measure"))
    probabilities = _stack(records, "probabilities", (len(records), hypotheses.n_hypotheses))
    return MtpoResult(task_ids=task_ids,
                      posteriors=tuple(RewardPosterior(row) for row in probabilities),
                      hypotheses=hypotheses, metadata=metadata)


def _is_int(value) -> bool:
    """Whether a value read from JSON is an integer (a bool is not)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _stack(records, key: str, shape: tuple) -> np.ndarray:
    """Every record's ``key`` as one float array, which must have ``shape``."""
    return _numbers([record[key] for record in records], key, shape)


def _numbers(values, key: str, shape: tuple = None) -> np.ndarray:
    """Nested lists read from JSON as a float array, of ``shape`` if one is
    given.  Every entry must be a JSON number: not a string, and not a bool,
    which numpy would read as 0 or 1."""
    grid = np.array(values, dtype=object)
    if shape is not None and grid.shape != shape:
        raise ValueError(f"{key!r} must have shape {shape} over the records")
    if not set(map(type, grid.flat)) <= {int, float}:
        raise ValueError(f"{key!r} must be an array of JSON numbers")
    try:
        return grid.astype(float)
    except OverflowError:
        raise ValueError(f"{key!r} holds a number too large for a float") from None


def _json_safe(value) -> bool:
    try:
        json.dumps(value)
        return True
    except TypeError:
        return False
