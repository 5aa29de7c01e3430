"""Command line front end: run experiments, infer posteriors, inspect files.

Subcommands: run, infer, validate, show.  Exit codes: 0 success, 1 usage,
2 configuration error, 3 data error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import (EXPERIMENTS, METHODS, Environment, _chain_mdp, _check_out_dir, _prepare,
                    l1_loss, run_experiment)
from .config import ConfigError, load_config
from .io import DataError, read_demonstrations
from .mdp import DegeneratePosteriorError, Mdp, solve_optimal
from .mtpo import MtpoResult
from .mtpp import PosteriorEnsemble

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

MODELS = ("mtpp-mc", "mtpp-mh", "mtpo-mc")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route through main instead
    def error(self, message):
        raise _UsageError(message)


def _seed(text: str) -> int:
    """A ``--seed`` value: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="multitask-irl",
                     description="Multitask reward inference from demonstrations.")
    commands = parser.add_subparsers(dest="command", metavar="command")

    run = commands.add_parser("run", help="run an experiment template", add_help=True)
    run.add_argument("--config", required=True, help="experiment configuration file")
    run.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    run.add_argument("--out", default=None, help="override the config output directory")

    infer = commands.add_parser("infer", help="fit a posterior to demonstrations")
    infer.add_argument("--demos", required=True, help="demonstrations text file")
    infer.add_argument("--model", required=True, choices=MODELS, help="sampler to run")
    infer.add_argument("--config", default=None, help="optional parameter file")
    infer.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    infer.add_argument("--out", default=".", help="output directory")

    validate = commands.add_parser("validate", help="check a configuration file")
    validate.add_argument("--config", required=True, help="configuration file to check")

    show = commands.add_parser("show", help="summarize a posterior file")
    show.add_argument("path", help="posterior JSON-lines file")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    if args.out is not None:
        config["out_dir"] = args.out
    if "experiment" not in config:
        raise ConfigError("config must set 'experiment' to one of: " + ", ".join(EXPERIMENTS))
    if not config.get("out_dir"):
        raise ConfigError("no output directory: pass --out or set out_dir in the config")
    result = run_experiment(config)
    out_dir = config["out_dir"]
    print(f"{result.name}: {len(result.rows)} rows -> "
          f"{os.path.join(out_dir, result.name + '-runs.csv')} "
          f"({result.metadata['wall_clock_seconds']:.2f}s)")
    return EXIT_OK


def _infer_environment(config, n_states: int, n_actions: int) -> Mdp:
    """The chain MDP that ``run`` builds from ``config``, with the
    demonstrations header's state count."""
    if n_states < 2:
        raise DataError("inference needs at least 2 states in the demonstrations header")
    if n_actions != 2:
        raise DataError(
            f"demonstrations use {n_actions} actions; the chain environment has 2"
        )
    declared = config.get("chain_states")
    if declared is not None and declared != n_states:
        raise ConfigError(
            f"chain_states = {declared} but the demonstrations header says {n_states}"
        )
    return _chain_mdp(dict(config, chain_states=n_states))


def _cmd_infer(args) -> int:
    config = load_config(args.config) if args.config else {}
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    n_states, n_actions, demos = read_demonstrations(args.demos)
    truth = _infer_environment(config, n_states, n_actions)
    posterior_path = os.path.join(args.out, "posterior.jsonl")
    env = Environment(truth.cmp)
    fit, _ = METHODS[args.model]
    _check_out_dir(args.out)
    ((policies, posterior),) = fit([(args.model, env, demos, None, seed)], config)
    os.makedirs(args.out, exist_ok=True)
    posterior.to_jsonl(posterior_path)
    ((baselines, _),) = METHODS["imitator"][0]([("imitator", env, demos, None, None)], config)
    task_ids = posterior.task_ids
    optimal, _ = solve_optimal(truth)
    summary = {"model": args.model, "seed": int(seed), "task_ids": [int(t) for t in task_ids],
               "posterior_file": posterior_path, "tasks": {}}
    for tid, policy, baseline in zip(task_ids, policies, baselines):
        mean_reward = posterior.posterior_mean_reward(tid).values
        summary["tasks"][str(tid)] = {
            "posterior_mean_reward": [float(v) for v in mean_reward],
            "greedy_actions": [int(a) for a in policy.greedy_actions()],
            "loss_vs_config_env": l1_loss(truth, policy, optimal),
            "imitator_loss_vs_config_env": l1_loss(truth, baseline, optimal),
        }

    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    for tid in task_ids:
        entry = summary["tasks"][str(tid)]
        print(f"task {tid}: loss {entry['loss_vs_config_env']:.4f} "
              f"(imitator {entry['imitator_loss_vs_config_env']:.4f})")
    print(f"wrote {posterior_path} and {summary_path}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    config = load_config(args.config)
    if "experiment" in config:
        _prepare(config)
    print(f"{args.config}: ok ({len(config)} keys)")
    return EXIT_OK


def _cmd_show(args) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        header = json.loads(first)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as error:
        raise DataError(f"cannot read posterior file {args.path}: {error}")
    kind = header.get("format") if isinstance(header, dict) else None
    if kind == "mtpp-ensemble":
        result = PosteriorEnsemble.from_jsonl(args.path)
        print(f"reward-and-temperature posterior: {result.n_samples} samples, "
              f"tasks {list(result.task_ids)}")
    elif kind == "mtpo-posterior":
        result = MtpoResult.from_jsonl(args.path)
        print(f"policy-optimality posterior: {result.hypotheses.n_hypotheses} hypotheses, "
              f"tasks {list(result.task_ids)}")
    else:
        raise DataError(f"{args.path}: unrecognized posterior format {kind!r}")
    for tid in result.task_ids:
        reward = result.posterior_mean_reward(tid).values
        print(f"  task {tid} mean reward: " + " ".join(f"{v:.4f}" for v in reward))
    return EXIT_OK


_COMMANDS = {
    "run": _cmd_run,
    "infer": _cmd_infer,
    "validate": _cmd_validate,
    "show": _cmd_show,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as error:
        print(f"usage error: {error}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as error:
        print(f"config error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as error:
        print(f"data error: {error}", file=sys.stderr)
        return EXIT_DATA
    except DegeneratePosteriorError as error:
        print(f"numeric failure: {error}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as error:
        print(f"data error: {error}", file=sys.stderr)
        return EXIT_DATA


def console_entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    console_entry()
