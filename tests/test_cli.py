import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hoardbench import cli
from hoardbench.cli import main

CONFIG = {"family": "D", "seeds": "0..0", "env": {"n_constraints": 3}}


@pytest.fixture
def non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    text = json.dumps({"family": "D", "env": {"caf\xe9": 1}}, ensure_ascii=False)
    path.write_bytes(text.encode("latin-1"))
    return path


def _refused(capsys, argv) -> str:
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    return err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_path_naming_a_directory_is_refused(tmp_path, capsys, command):
    err = _refused(capsys, [command, "--config", str(tmp_path)])
    assert "Is a directory" in err


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_config_file_that_is_not_utf8_is_refused(non_utf8, capsys, command):
    err = _refused(capsys, [command, "--config", str(non_utf8)])
    assert "utf-8" in err


def test_report_of_a_file_is_refused(tmp_path, capsys):
    path = tmp_path / "runs.jsonl"
    path.write_text("")
    err = _refused(capsys, ["report", "--in", str(path)])
    assert "is not a results directory" in err


def test_seeds_flag_takes_one_seed_as_an_integer(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--seeds", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("wrote 1 run cells")
    records = [json.loads(line) for line in (out / "runs.jsonl").read_text().splitlines()]
    assert [record["seed"] for record in records] == [3]


def test_run_into_a_file_is_refused_before_the_grid(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    out.write_text("taken")

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "run_grid", no_grid)
    err = _refused(capsys, ["run", "--config", str(config), "--out", str(out)])
    assert "cannot use output directory" in err
    assert out.read_text() == "taken"


def test_missing_paths_are_refused(tmp_path, capsys):
    _refused(capsys, ["validate", "--config", str(tmp_path / "none.json")])
    _refused(capsys, ["report", "--in", str(tmp_path / "none")])


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_with_fewer_than_one_worker_is_refused_before_the_grid(
    tmp_path, capsys, monkeypatch, jobs
):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"

    def no_grid(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "run_grid", no_grid)
    err = _refused(capsys, ["run", "--config", str(config), "--out", str(out), "--jobs", jobs])
    assert err == "error: --jobs must be at least 1\n"
    assert not out.exists()


@pytest.fixture
def results(tmp_path):
    """A results directory written by `hoardbench run` of `CONFIG`."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name, damage, message", [
    ("runs.jsonl", lambda text: text + b"{not json\n", "runs.jsonl line 2: not a run record"),
    ("runs.jsonl", lambda text: b"\n" + text + b"\xff\xfe\n", "runs.jsonl line 3: not a run record"),
    ("runs.jsonl", lambda text: text.replace(b'"family":"D",', b"", 1),
     "runs.jsonl line 1: not a run record: KeyError('family')"),
    ("runs.jsonl", lambda text: b"[1, 2]\n" + text, "runs.jsonl line 1: not a run record"),
    ("runs.jsonl", lambda text: text.replace(b'"variant":"baseline"', b'"variant":"other"'),
     "runs.jsonl line 1: variant 'other' is not one of the config's ['baseline']"),
    ("resolved_config.json", lambda text: text.replace(b'"D"', b'"\xe9"'),
     "resolved_config.json: 'utf-8' codec can't decode"),
], ids=["not_json", "not_utf8", "missing_key", "not_an_object", "unknown_variant",
        "config_not_utf8"])
def test_report_of_a_damaged_results_file_is_refused(results, capsys, name, damage, message):
    path = results / name
    path.write_bytes(damage(path.read_bytes()))
    capsys.readouterr()
    err = _refused(capsys, ["report", "--in", str(results)])
    assert message in err and str(path) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("document, warning", [
    ({"family": "A", "env": {"z_prior_variance": 1.0}},
     "warning: config key 'env.z_prior_variance': only RLS reads it, and agent.rls is false\n"),
    ({"family": "D", "env": {"n_constraints": 20, "adversary_probes": 30}},
     "warning: config key 'env.adversary_probes': 30 exceeds env.n_constraints 20; "
     "the adversary probes each constraint at most once\n"),
    ({"family": "D", "env": {"n_constraints": 20},
      "sweep": {"key": "adversary_probes", "values": [10, 21]}},
     "warning: config key 'env.adversary_probes': 21 exceeds env.n_constraints 20; "
     "the adversary probes each constraint at most once\n"),
    ({"family": "C", "env": {"caches": 6, "recovery_horizon": 4}},
     "warning: config key 'env.recovery_horizon': 4 is below env.caches 6: "
     "recovery stops after the first 4 caches\n"),
    # RLS reads the variance; the launch planner aims with the prior mean
    # whether RLS runs or not; D's default probes cover a small universe by
    # design; a horizon of one step per cache recovers every cache.
    ({"family": "A", "env": {"z_prior_variance": 1.0}, "agent": {"rls": True}}, ""),
    ({"family": "A", "env": {"z_prior_mean": 0.75}}, ""),
    ({"family": "D", "env": {"n_constraints": 3}}, ""),
    ({"family": "C", "env": {"caches": 6, "recovery_horizon": 6}}, ""),
], ids=["a_variance_without_rls", "d_probes_clamped", "d_probes_clamped_in_a_sweep",
        "c_horizon_below_caches", "a_variance_with_rls", "a_mean_without_rls",
        "d_default_probes", "c_horizon_of_every_cache"])
def test_a_key_set_to_no_effect_is_warned_of_on_stderr(tmp_path, capsys, document, warning):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**document, "seeds": "0..0"}))
    assert main(["validate", "--config", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert captured.out == json.dumps(
        cli.resolved_document(cli.parse_config(path.read_text())), indent=2, sort_keys=True) + "\n"
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    assert captured.err == warning
    assert captured.out.startswith("wrote ")


# Run a config through `cli.main` in a fresh interpreter, then print whether
# numpy.ma was imported: numpy's quantile functions import it on first use.
_NUMPY_MA_PROBE = """
import sys
from hoardbench import cli
config, out = sys.argv[1:]
assert cli.main(["run", "--config", config, "--out", out]) == 0
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("document", [
    {"family": "A", "env": {"trials": 1}, "ablations": ["no_feedback"]},
    {"family": "B", "env": {"n_events": 16}, "ablations": ["flat_archive"]},
    {"family": "C", "env": {"caches": 3}, "ablations": ["no_observer_model"]},
    {"family": "D", "env": {"n_constraints": 8}, "ablations": ["single_agent"]},
], ids=["A", "B", "C", "D"])
def test_a_run_and_its_report_leave_numpy_ma_unimported(tmp_path, document):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**document, "seeds": "0..1"}))
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_MA_PROBE, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    assert done.stdout.splitlines()[-1] == "False"
    assert (tmp_path / "out" / "summary.csv").read_text().count("\n") > 1


def test_a_negative_seeds_flag_gets_the_message_a_negative_config_seeds_gets(tmp_path, capsys):
    in_config, in_flag = tmp_path / "negative.json", tmp_path / "config.json"
    in_config.write_text(json.dumps({**CONFIG, "seeds": -3}))
    in_flag.write_text(json.dumps(CONFIG))
    out = str(tmp_path / "out")
    from_config = _refused_config(capsys, ["run", "--config", str(in_config), "--out", out])
    from_flag = _refused_config(
        capsys, ["run", "--config", str(in_flag), "--seeds", "-3", "--out", out])
    assert from_flag == from_config
    assert "seeds must be non-negative" in from_flag


def _refused_config(capsys, argv) -> str:
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    return err
