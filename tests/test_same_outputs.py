import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bundle(out: Path, runs: str) -> Path:
    (out / "traces" / "flat").mkdir(parents=True)
    (out / "resolved_config.json").write_text(
        json.dumps({"output_dir": str(out), "seeds": "0..0"}, indent=2) + "\n"
    )
    (out / "runs.jsonl").write_text(runs)
    (out / "traces" / "flat" / "seed_0.jsonl").write_text('{"step":0}\n')
    (out / "timing.json").write_text(json.dumps({"report_seconds": len(runs)}))
    return out


def test_outputs_skip_timing_and_compare_config_up_to_output_dir(tmp_path):
    tool = _tool()
    a = tool.outputs(_bundle(tmp_path / "a", "{}\n"))
    b = tool.outputs(_bundle(tmp_path / "bb", "{}\n"))
    assert sorted(a) == ["resolved_config.json", "runs.jsonl", "traces/flat/seed_0.jsonl"]
    assert tool.differences(a, b) == []


def test_differences_name_changed_and_missing_files(tmp_path):
    tool = _tool()
    a = tool.outputs(_bundle(tmp_path / "a", "{}\n"))
    out = _bundle(tmp_path / "b", "{} \n")
    (out / "traces" / "flat" / "seed_0.jsonl").unlink()
    (out / "failures.md").write_text("")
    assert tool.differences(a, tool.outputs(out)) == [
        "failures.md", "runs.jsonl", "traces/flat/seed_0.jsonl",
    ]


def test_key_paths_name_what_differs_inside_runs_jsonl():
    parent = (
        b'{"seed":0,"signals":[{"emitted_at":3,"target":null},{"emitted_at":4,"target":null}]}\n'
        b'{"seed":1,"signals":[],"x":0.0}\n'
        b'{"seed":2,"signals":[{"emitted_at":1,"target":null}]}\n'
    )
    change = (
        b'{"seed":0,"signals":[{"emitted_at":3},{"emitted_at":5}]}\n'
        b'{"seed":1,"signals":[],"x":-0.0}\n'
        b'{"seed":2,"signals":[{"emitted_at":1}],"extra":{}}\n'
        b'{"seed":3}\n'
    )
    assert _tool().key_path_differences(change, parent, ("change", "parent")) == [
        "extra: only in change, 1 records",
        "signals[].emitted_at: differs, 1 records",
        "signals[].target: only in parent, 2 records",
        "x: differs, 1 records",
        "(record count): 4 in change, 3 in parent",
    ]


def test_a_checkout_without_source_is_refused(tmp_path, capsys):
    assert _tool().main([str(tmp_path), str(tmp_path)]) == 2
    assert "has no src/hoardbench" in capsys.readouterr().err
