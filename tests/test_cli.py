import json

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
