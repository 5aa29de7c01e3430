import numpy as np
import pytest

from multitask_irl import (
    CONFIG_KEYS,
    ConfigError,
    DataError,
    Demonstration,
    describe_keys,
    load_config,
    parse_config,
    read_demonstrations,
    write_demonstrations,
)


def test_parse_config_types_and_comments():
    text = """
# chain study
experiment = sampler-comparison
seed = 7
replications = 3
discount = 0.9
sample_budgets = 100, 300
methods = imitator, mwal
chain_rewards = 0.2, 0, 1
out_dir = results
"""
    cfg = parse_config(text)
    assert cfg["experiment"] == "sampler-comparison"
    assert cfg["seed"] == 7
    assert isinstance(cfg["seed"], int)
    assert cfg["discount"] == 0.9
    assert cfg["sample_budgets"] == (100, 300)
    assert cfg["methods"] == ("imitator", "mwal")
    assert cfg["chain_rewards"] == (0.2, 0.0, 1.0)
    assert cfg["out_dir"] == "results"


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        parse_config("bogus = 1")
    with pytest.raises(ConfigError, match="must be at least 0, got -1"):
        parse_config("seed = -1")
    with pytest.raises(ConfigError, match="duplicate key 'seed'"):
        parse_config("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="must be less than 1.0, got 1.5"):
        parse_config("discount = 1.5")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("no_equals_line")
    with pytest.raises(ConfigError, match="seed"):
        parse_config("seed = soon")


def test_parse_config_rejects_more_chains_than_iterations():
    with pytest.raises(ConfigError, match="mh_chains = 4 exceeds mh_iterations = 3"):
        parse_config("mh_iterations = 3\nmh_chains = 4")
    assert parse_config("mh_iterations = 4\nmh_chains = 4") == {"mh_iterations": 4,
                                                                "mh_chains": 4}
    # Either key alone leaves the other to the method's default.
    assert parse_config("mh_chains = 4000") == {"mh_chains": 4000}
    assert parse_config("mh_iterations = 1") == {"mh_iterations": 1}


@pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
def test_parse_config_rejects_non_finite_floats(text):
    for key in ("reward_step", "hyper_rate", "demo_eta", "optimality_rate", "discount"):
        with pytest.raises(ConfigError, match=f"^{key}: must be finite, got {text}$"):
            parse_config(f"{key} = {text}")
    with pytest.raises(ConfigError, match=f"^temperature_values: must be finite, got {text}$"):
        parse_config(f"temperature_values = 1, {text}")


def test_parse_config_empty_text():
    assert parse_config("") == {}
    assert parse_config("# only a comment\n\n") == {}


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment = multitask-gain\nseed = 2\ntask_counts = 1, 2\n")
    cfg = load_config(path)
    assert cfg == {
        "experiment": "multitask-gain",
        "seed": 2,
        "task_counts": (1, 2),
    }


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_describe_keys_covers_everything():
    entries = describe_keys()
    assert [name for name, _ in entries] == sorted(CONFIG_KEYS)
    assert len(entries) == 33
    assert all(isinstance(text, str) and text for _, text in entries)
    # Planning is exact, so there is no planner tolerance to set.
    with pytest.raises(ConfigError, match="unknown key 'tolerance'"):
        parse_config("tolerance = 1e-9")


def test_write_then_read_demonstrations(tmp_path):
    path = tmp_path / "demos.txt"
    demos = [
        Demonstration(0, np.array([0, 1]), np.array([0, 1])),
        Demonstration(3, np.array([1]), np.array([0])),
    ]
    write_demonstrations(path, 2, 2, demos)
    assert path.read_text() == "2 2\n0 0 0 1 1\n3 1 0\n"
    n_states, n_actions, loaded = read_demonstrations(path)
    assert (n_states, n_actions) == (2, 2)
    assert len(loaded) == 2
    for original, parsed in zip(demos, loaded):
        assert parsed.task_id == original.task_id
        assert np.array_equal(parsed.states, original.states)
        assert np.array_equal(parsed.actions, original.actions)


def test_write_demonstrations_checks_bounds(tmp_path):
    stray = Demonstration(0, np.array([5]), np.array([0]))
    with pytest.raises(ValueError):
        write_demonstrations(tmp_path / "demos.txt", 2, 2, [stray])


def test_read_demonstrations_error_cases(tmp_path):
    def write(text):
        path = tmp_path / "case.txt"
        path.write_text(text)
        return path

    with pytest.raises(DataError, match="cannot read demonstrations"):
        read_demonstrations(tmp_path / "absent.txt")
    with pytest.raises(DataError, match="missing 'n_states n_actions' header"):
        read_demonstrations(write(""))
    with pytest.raises(DataError, match="no trajectories after the header"):
        read_demonstrations(write("2 2\n"))
    with pytest.raises(DataError, match="header must be 'n_states n_actions'"):
        read_demonstrations(write("2 2 2\n0 0 0\n"))
    with pytest.raises(DataError, match="header must hold two integers"):
        read_demonstrations(write("two 2\n0 0 0\n"))
    with pytest.raises(DataError, match="counts must be positive"):
        read_demonstrations(write("0 2\n0 0 0\n"))
    with pytest.raises(DataError, match="non-integer entry"):
        read_demonstrations(write("2 2\n0 0 x\n"))
    with pytest.raises(DataError, match="task id then state/action pairs"):
        read_demonstrations(write("2 2\n0 0\n"))
    with pytest.raises(DataError, match="outside"):
        read_demonstrations(write("2 2\n0 0 0 5 1\n"))
    with pytest.raises(DataError, match="task_id must be non-negative"):
        read_demonstrations(write("2 2\n-1 0 0\n"))


def test_read_demonstrations_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "demos.txt"
    path.write_text("# corpus\n\n2 2\n# task zero\n0 0 0 1 1\n\n")
    _, _, demos = read_demonstrations(path)
    assert len(demos) == 1
    assert np.array_equal(demos[0].states, [0, 1])
