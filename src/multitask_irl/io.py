"""Plain-text demonstration files.

The first data line is a header ``n_states n_actions``; every following line
is one trajectory: a task id, then alternating state and action integers.
Blank lines and lines starting with ``#`` are ignored.
"""

from __future__ import annotations

import numpy as np

from .mdp import Demonstration

__all__ = ["DataError", "read_demonstrations", "write_demonstrations"]


class DataError(Exception):
    """Raised for malformed or out-of-range demonstration data."""


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
        task_id, rest = values[0], np.array(values[1:], dtype=int)
        try:
            demo = Demonstration(task_id=task_id, states=rest[0::2], actions=rest[1::2])
            demo.check_bounds(n_states, n_actions)
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
