import json
import subprocess
import sys

import numpy as np
import pytest

from multitask_irl import (
    GammaHyperprior,
    MtpoResult,
    PosteriorEnsemble,
    make_chain,
    make_demonstrator,
    mtpp_mc,
    read_demonstrations,
    read_posterior,
    simulate,
    substream,
    write_demonstrations,
)
from multitask_irl import bench
from multitask_irl.cli import main


@pytest.fixture(scope="module")
def demo_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("demos") / "chain.txt"
    mdp = make_chain(n_states=3, slip=0.2)
    demonstrator = make_demonstrator("eps_greedy", mdp, epsilon=0.05)
    demos = [
        simulate(mdp, demonstrator, 30, substream(0, "cli-demo", tid), task_id=tid)
        for tid in (0, 1)
    ]
    write_demonstrations(path, 3, 2, demos)
    return path


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "multitask-irl" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--nonsense"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_validate_accepts_good_config(tmp_path, capsys):
    path = tmp_path / "good.cfg"
    path.write_text("experiment = sampler-comparison\nseed = 1\n")
    assert main(["validate", "--config", str(path)]) == 0
    assert "ok (2 keys)" in capsys.readouterr().out


def test_validate_rejects_bad_contents(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = warp-drive\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["validate", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_validate_rejects_a_config_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"seed = 1\nout_dir = \xff\n")
    assert main(["validate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot read config {path}:")


def test_run_requires_experiment_and_out_dir(tmp_path, capsys):
    empty = tmp_path / "empty.cfg"
    empty.write_text("seed = 1\n")
    assert main(["run", "--config", str(empty), "--out", str(tmp_path)]) == 2
    no_out = tmp_path / "noout.cfg"
    no_out.write_text("experiment = sampler-comparison\n")
    assert main(["run", "--config", str(no_out)]) == 2


def test_run_writes_csv_outputs(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(
        "experiment = sampler-comparison\n"
        "seed = 2\n"
        "replications = 1\n"
        "sample_budgets = 20\n"
        "mh_chain_counts = 1\n"
        "demo_length = 5\n"
        "chain_states = 3\n"
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "sampler-comparison-runs.csv").exists()
    assert (out / "sampler-comparison-aggregate.csv").exists()
    assert "sampler-comparison" in capsys.readouterr().out


def test_infer_mtpp_mc_matches_in_process_run(tmp_path, demo_file, capsys):
    cfg = tmp_path / "infer.cfg"
    cfg.write_text("mc_samples = 150\nseed = 9\n")
    out = tmp_path / "posterior"
    code = main([
        "infer", "--demos", str(demo_file), "--model", "mtpp-mc",
        "--config", str(cfg), "--seed", "5", "--out", str(out),
    ])
    assert code == 0
    loaded = read_posterior(out / "posterior.jsonl")
    assert isinstance(loaded, PosteriorEnsemble)

    n_states, n_actions, demos = read_demonstrations(demo_file)
    mdp = make_chain(n_states=3, slip=0.2)
    hyper = GammaHyperprior(3, concentration_law=(1.0, 10.0))
    expected = mtpp_mc(mdp.cmp, demos, hyper, 150, 0.95, 5)
    assert loaded.task_ids == expected.task_ids == (0, 1)
    assert np.allclose(loaded.weights, expected.weights, atol=1e-15)
    assert np.allclose(loaded.rewards, expected.rewards, atol=1e-15)

    summary = json.loads((out / "summary.json").read_text())
    assert summary["model"] == "mtpp-mc"
    assert summary["seed"] == 5
    assert summary["task_ids"] == [0, 1]
    for tid in ("0", "1"):
        entry = summary["tasks"][tid]
        assert len(entry["posterior_mean_reward"]) == 3
        assert entry["loss_vs_config_env"] >= 0.0
        assert entry["imitator_loss_vs_config_env"] >= 0.0
    shown = capsys.readouterr().out
    assert "task 0" in shown and "wrote" in shown


def test_infer_mtpo_mc_and_show(tmp_path, demo_file, capsys):
    cfg = tmp_path / "infer.cfg"
    cfg.write_text("mc_samples = 60\nn_hypotheses = 8\n")
    out = tmp_path / "posterior"
    code = main([
        "infer", "--demos", str(demo_file), "--model", "mtpo-mc",
        "--config", str(cfg), "--out", str(out),
    ])
    assert code == 0
    result = read_posterior(out / "posterior.jsonl")
    assert isinstance(result, MtpoResult)
    assert result.hypotheses.n_hypotheses == 8
    capsys.readouterr()
    assert main(["show", str(out / "posterior.jsonl")]) == 0
    shown = capsys.readouterr().out
    assert "policy-optimality posterior" in shown
    assert "task 0 mean reward" in shown


def test_infer_mtpp_mh_writes_ensemble(tmp_path, demo_file):
    cfg = tmp_path / "infer.cfg"
    cfg.write_text("mh_iterations = 60\nmh_chains = 2\n")
    out = tmp_path / "posterior"
    code = main([
        "infer", "--demos", str(demo_file), "--model", "mtpp-mh",
        "--config", str(cfg), "--out", str(out),
    ])
    assert code == 0
    loaded = read_posterior(out / "posterior.jsonl")
    assert isinstance(loaded, PosteriorEnsemble)
    assert loaded.metadata["kind"] == "mtpp-mh"
    # 60 total iterations over 2 chains: 30 each, minus a 3-sweep burn-in.
    assert loaded.n_samples == 2 * (30 - 3)


def test_infer_rejects_more_chains_than_iterations(tmp_path, demo_file, capsys):
    cfg = tmp_path / "chains.cfg"
    cfg.write_text("mh_iterations = 3\nmh_chains = 4\n")
    code = main([
        "infer", "--demos", str(demo_file), "--model", "mtpp-mh",
        "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "config error: mh_chains = 4 exceeds mh_iterations = 3" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infer_rejects_more_chains_than_the_default_iterations(tmp_path, demo_file, capsys):
    cfg = tmp_path / "chains.cfg"
    cfg.write_text("mh_chains = 5000\n")
    code = main([
        "infer", "--demos", str(demo_file), "--model", "mtpp-mh",
        "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert ("config error: mh_chains = 5000 exceeds the 2000 iterations of an mtpp-mh fit"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_run_rejects_more_chains_than_a_swept_budget(tmp_path, capsys):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(
        "experiment = sampler-comparison\n"
        "replications = 1\n"
        "sample_budgets = 2, 20\n"
        "mh_chain_counts = 4\n"
        "demo_length = 5\n"
        "chain_states = 3\n"
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert ("mtpp-mh-4 (chain count 4 from mh_chain_counts) exceeds the 2 iterations"
            in err)
    assert "mh_chains" not in err


def test_run_rejects_a_repeated_chain_count(tmp_path, capsys):
    cfg = tmp_path / "repeat.cfg"
    cfg.write_text("experiment = sampler-comparison\nmh_chain_counts = 1, 1\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: mh_chain_counts lists 1 more than once" in err
    assert not (tmp_path / "o").exists()


def test_run_rejects_an_infinite_temperature(tmp_path, capsys):
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("experiment = random-mdp-temperature-sweep\ntemperature_values = 1, inf\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: temperature_values: must be finite, got inf" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_infer_rejects_mismatched_state_count(tmp_path, demo_file, capsys):
    cfg = tmp_path / "wrong.cfg"
    cfg.write_text("chain_states = 4\n")
    code = main([
        "infer", "--demos", str(demo_file), "--model", "mtpp-mc",
        "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert "chain_states = 4" in capsys.readouterr().err


CHAIN_REWARDS_ERROR = "config error: chain_rewards lists 2 values but chain_states = {}"


@pytest.mark.parametrize("command", ["validate", "run"])
def test_chain_rewards_of_another_length_are_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "rewards.cfg"
    cfg.write_text("experiment = sampler-comparison\nchain_states = 4\nchain_rewards = 0.1, 0.2\n")
    args = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "o")]
                                              if command == "run" else [])
    assert main(args) == 2
    assert CHAIN_REWARDS_ERROR.format(4) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("text, message", [
    ("experiment = multitask-gain\nmethods = mwal\n",
     "unknown method 'mwal' for multitask-gain"),
    ("experiment = multitask-gain\ntotal_demos = 7\n",
     "total_demos (7) must be divisible by every task count, not 2"),
    ("experiment = sampler-comparison\nmh_chain_counts = 4\nsample_budgets = 2\n",
     "mtpp-mh-4 (chain count 4 from mh_chain_counts) exceeds the 2 iterations"),
    ("experiment = sampler-comparison\nchain_rewards = 0.1, 0.2\n",
     CHAIN_REWARDS_ERROR.format(5)),
    ("experiment = sampler-comparison\nmh_chain_counts = 1, 1\n",
     "mh_chain_counts lists 1 more than once"),
    ("experiment = data-efficiency\nmethods = mwal, mwal\n",
     "methods lists 'mwal' more than once"),
], ids=["method", "total-demos", "chain-count", "chain-rewards", "chain-counts-repeat",
        "methods-repeat"])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, command, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    args = [command, "--config", str(cfg)] + (["--out", str(tmp_path / "o")]
                                              if command == "run" else [])
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert message in err
    assert not (tmp_path / "o").exists()


def test_run_rejects_a_chain_count_before_any_fit(tmp_path, capsys, monkeypatch):
    fitted = []
    monkeypatch.setattr(bench, "mtpp_mc", lambda *args: fitted.append("mtpp-mc"))
    monkeypatch.setattr(bench, "_mtpp_mh_batch", lambda *args, **kwargs: fitted.append("mh"))
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("experiment = sampler-comparison\nreplications = 3\n"
                   "sample_budgets = 2, 20\nmh_chain_counts = 4\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "mtpp-mh-4 (chain count 4" in capsys.readouterr().err
    assert fitted == []


@pytest.mark.parametrize("command", ["run", "infer"])
def test_a_negative_seed_is_a_usage_error(tmp_path, demo_file, capsys, command):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("experiment = sampler-comparison\nreplications = 1\nsample_budgets = 20\n"
                   "mh_chain_counts = 1\ndemo_length = 5\nchain_states = 3\n")
    args = (["run", "--config", str(cfg)] if command == "run" else
            ["infer", "--demos", str(demo_file), "--model", "mtpp-mc"])
    assert main(args + ["--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("usage error: argument --seed: must be "
                                              "non-negative, got -1")
    assert not (tmp_path / "o").exists()


def test_run_checks_chain_rewards_against_the_default_state_count(tmp_path, capsys):
    cfg = tmp_path / "rewards.cfg"
    cfg.write_text("experiment = sampler-comparison\nchain_rewards = 0.1, 0.2\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert CHAIN_REWARDS_ERROR.format(5) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infer_checks_chain_rewards_against_the_header_state_count(tmp_path, demo_file,
                                                                   capsys):
    cfg = tmp_path / "rewards.cfg"
    cfg.write_text("chain_rewards = 0.1, 0.2\n")
    code = main([
        "infer", "--demos", str(demo_file), "--model", "mtpp-mc",
        "--config", str(cfg), "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert CHAIN_REWARDS_ERROR.format(3) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_infer_rejects_wrong_action_count(tmp_path, capsys):
    path = tmp_path / "demos3.txt"
    path.write_text("3 3\n0 0 0 1 1\n")
    code = main(["infer", "--demos", str(path), "--model", "mtpp-mc",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert "data error" in capsys.readouterr().err


def test_infer_rejects_an_index_too_large_for_an_integer(tmp_path, capsys):
    path = tmp_path / "huge.txt"
    path.write_text("5 2\n0 0 1 99999999999999999999999 0\n")
    code = main(["infer", "--demos", str(path), "--model", "mtpp-mc",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err == (
        f"data error: {path} line 2: a state or action index is out of range\n")
    assert not (tmp_path / "o").exists()


def test_infer_missing_demo_file(tmp_path, capsys):
    code = main(["infer", "--demos", str(tmp_path / "absent.txt"),
                 "--model", "mtpp-mc", "--out", str(tmp_path / "o")])
    assert code == 3


def test_infer_rejects_demos_that_are_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"3 2\n0 0 0 \xff 1\n")
    code = main(["infer", "--demos", str(path), "--model", "mtpp-mc",
                 "--out", str(tmp_path / "o")])
    assert code == 3
    assert capsys.readouterr().err.startswith(f"data error: cannot read demonstrations {path}:")


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under-a-file"])
def test_infer_out_blocked_by_a_file_fails_before_fitting(tmp_path, demo_file, capsys,
                                                          monkeypatch, nested):
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    out = blocker / "sub" if nested else blocker
    fitted = []
    monkeypatch.setitem(bench.METHODS, "mtpp-mc", (lambda *args: fitted.append(args), None))
    code = main(["infer", "--demos", str(demo_file), "--model", "mtpp-mc",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}:")
    assert fitted == []
    assert blocker.read_text() == "keep\n"


def test_run_out_blocked_by_a_file_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("experiment = sampler-comparison\nreplications = 1\nsample_budgets = 20\n"
                   "mh_chain_counts = 1\ndemo_length = 5\nchain_states = 3\n")
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    assert main(["run", "--config", str(cfg), "--out", str(blocker)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {blocker}:")
    assert blocker.read_text() == "keep\n"


def test_show_mtpp_posterior(tmp_path, demo_file, capsys):
    out = tmp_path / "posterior"
    cfg = tmp_path / "infer.cfg"
    cfg.write_text("mc_samples = 40\n")
    assert main(["infer", "--demos", str(demo_file), "--model", "mtpp-mc",
                 "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["show", str(out / "posterior.jsonl")]) == 0
    shown = capsys.readouterr().out
    assert "reward-and-temperature posterior" in shown


def test_show_error_paths(tmp_path, capsys):
    assert main(["show", str(tmp_path / "absent.jsonl")]) == 3
    junk = tmp_path / "junk.jsonl"
    junk.write_text("not json at all\n")
    assert main(["show", str(junk)]) == 3
    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"format": "something-else"}\n')
    assert main(["show", str(wrong)]) == 3


def test_show_rejects_a_posterior_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "latin.jsonl"
    path.write_bytes(b'{"format": "\xff"}\n')
    assert main(["show", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        f"data error: cannot read posterior file {path}:")


MTPO_HEADER = {"format": "mtpo-posterior", "hypotheses": [[1.0, 0.0], [0.0, 1.0]],
               "measure": [1.0, 1.0], "metadata": {}}
MTPP_HEADER = {"format": "mtpp-ensemble", "task_ids": [0], "n_samples": 1, "n_states": 2,
               "metadata": {}}
MTPP_RECORD = {"weight": 1.0, "rewards": [[0.5, 0.5]], "temperatures": [1.0],
               "log_likelihoods": [0.0]}
MTPP_TWO_TASK_RECORD = {"weight": 1.0, "rewards": [[0.5, 0.5]] * 2, "temperatures": [1.0] * 2,
                        "log_likelihoods": [0.0] * 2}


@pytest.mark.parametrize("lines", [
    [dict(MTPO_HEADER, task_ids=[0, 1]), {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPO_HEADER, task_ids=[0]), {"task_id": 7, "probabilities": [0.5, 0.5]}],
    [MTPP_HEADER, {"weight": 1.0, "rewards": [[0.5, 0.5]], "temperatures": [1.0]}],
    [[MTPP_HEADER]],
    [dict(MTPO_HEADER, task_ids=[0]), 7],
    [dict(MTPP_HEADER, task_ids=[0, 1]), MTPP_RECORD],
    [MTPP_HEADER, dict(MTPP_RECORD, rewards=[0.5, 0.5])],
    [dict(MTPP_HEADER, n_states=5), dict(MTPP_RECORD, rewards=[[0.2, 0.3, 0.5]])],
    [dict(MTPO_HEADER, task_ids=[0]), {"task_id": 0, "probabilities": [0.2, 0.3, 0.5]}],
    [dict(MTPP_HEADER, task_ids=5), MTPP_RECORD],
    [dict(MTPO_HEADER, task_ids=5), {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPO_HEADER, task_ids=[0], measure=[1.0]), {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPO_HEADER, task_ids=[0], measure=None), {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPP_HEADER, metadata=[1, 2]), MTPP_RECORD],
    [MTPP_HEADER, dict(MTPP_RECORD, weight=0.5)],
    [dict(MTPO_HEADER, task_ids=[0]), {"task_id": 0, "probabilities": [0.9, 0.9]}],
    [MTPP_HEADER, dict(MTPP_RECORD, weight=float("nan"))],
    [dict(MTPO_HEADER, task_ids=[0]),
     {"task_id": 0, "probabilities": [float("nan"), float("nan")]}],
    [MTPP_HEADER, dict(MTPP_RECORD, rewards=[[float("nan"), 0.5]])],
    [MTPP_HEADER, dict(MTPP_RECORD, rewards=[[1.5, 0.5]])],
    [MTPP_HEADER, dict(MTPP_RECORD, temperatures=[float("nan")])],
    [MTPP_HEADER, dict(MTPP_RECORD, temperatures=[-3.0])],
    [MTPP_HEADER, dict(MTPP_RECORD, log_likelihoods=[float("nan")])],
    [dict(MTPO_HEADER, task_ids=[0], measure=[float("nan"), 1.0]),
     {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPO_HEADER, task_ids=[0], measure=[float("inf"), 1.0]),
     {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPP_HEADER, n_states=0), dict(MTPP_RECORD, rewards=[[]])],
    [MTPP_HEADER, '{"weight": 1.0, "rewards": [[0.5'],
    [dict(MTPP_HEADER, task_ids=[0, 0]), MTPP_TWO_TASK_RECORD],
    [dict(MTPP_HEADER, task_ids=[1, 0]), MTPP_TWO_TASK_RECORD],
    [dict(MTPO_HEADER, task_ids=[0, 0]), {"task_id": 0, "probabilities": [0.5, 0.5]},
     {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPP_HEADER, task_ids=[-1]), MTPP_RECORD],
    [dict(MTPP_HEADER, n_samples="1"), MTPP_RECORD],
    [MTPP_HEADER, {"weight": "1.0", "rewards": [["0.5", "0.5"]], "temperatures": ["1"],
                   "log_likelihoods": ["0"]}],
    [dict(MTPO_HEADER, task_ids=[0], measure=["1", 1]),
     {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPO_HEADER, task_ids=[1], measure=[True, 1]),
     {"task_id": True, "probabilities": [False, True]}],
    [dict(MTPO_HEADER, task_ids=[1]), {"task_id": True, "probabilities": [0.5, 0.5]}],
    [dict(MTPO_HEADER, task_ids=[0]), {"task_id": 0, "probabilities": [False, True]}],
    [dict(MTPO_HEADER, task_ids=[0], measure=[True, 1]),
     {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [dict(MTPO_HEADER, task_ids=[0], hypotheses=[[True, False], [False, True]]),
     {"task_id": 0, "probabilities": [0.5, 0.5]}],
    [MTPP_HEADER, dict(MTPP_RECORD, weight=True)],
    [MTPP_HEADER, dict(MTPP_RECORD, weight=10 ** 400)],
], ids=["missing-record", "unlisted-task", "missing-key", "header-not-object",
        "record-not-object", "record-task-count", "flat-rewards", "record-state-count",
        "hypothesis-count", "mtpp-task-ids-not-list", "mtpo-task-ids-not-list",
        "measure-length", "null-measure", "metadata-not-object", "weights-not-normalized",
        "probabilities-not-normalized", "nan-weights", "nan-probabilities", "nan-rewards",
        "reward-above-one", "nan-temperatures", "negative-temperature",
        "nan-log-likelihoods", "nan-measure", "infinite-measure", "no-states", "corrupt-record",
        "mtpp-task-ids-repeat", "mtpp-task-ids-unsorted", "mtpo-task-ids-repeat",
        "mtpp-task-ids-negative", "n-samples-string", "strings-for-numbers", "string-measure",
        "bools-for-numbers", "bool-task-id", "bool-probabilities", "bool-measure",
        "bool-hypotheses", "bool-weight", "number-too-large-for-a-float"])
def test_show_rejects_malformed_posterior_files(tmp_path, capsys, lines):
    # A string is written as it stands, so it can be a line that is not JSON.
    path = tmp_path / "malformed.jsonl"
    path.write_text("".join((line if isinstance(line, str) else json.dumps(line)) + "\n"
                            for line in lines))
    assert main(["show", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("data error:")
    assert str(path) in captured.err
    assert captured.out == ""


def test_console_script_help_runs():
    completed = subprocess.run(
        [sys.executable, "-m", "multitask_irl.cli", "--help"],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0
    assert "multitask-irl" in completed.stdout


_SCIPY_PROBE = """
import json, sys
from multitask_irl.cli import main
loaded = ["scipy" in sys.modules]
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded.append("scipy" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_the_metropolis_sampler_loads_scipy(tmp_path, demo_file):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("mh_iterations = 20\nmc_samples = 20\n")

    def infer(model):
        return ["infer", "--demos", str(demo_file), "--model", model,
                "--config", str(cfg), "--out", str(tmp_path / model)]

    commands = [
        infer("mtpp-mc"), ["show", str(tmp_path / "mtpp-mc" / "posterior.jsonl")],
        infer("mtpo-mc"), ["show", str(tmp_path / "mtpo-mc" / "posterior.jsonl")],
        infer("mtpp-mh"),
    ]
    completed = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr
    # The fresh interpreter loads scipy at the first Metropolis-Hastings fit,
    # and not before: not on import, nor for the other samplers or show.
    loaded = json.loads(completed.stdout.splitlines()[-1])
    assert loaded == [False, False, False, False, False, True]
