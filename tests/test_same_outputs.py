import importlib.util
import json
from pathlib import Path

import pytest

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


def test_seeds_and_workloads_default_to_all_workloads_at_seeds_0_to_2_and_601(capsys):
    tool = _tool()
    args = tool.parse_args(["p", "c"])
    assert args.seeds == (0, 1, 2, 601)
    assert args.workloads == list(tool.WORKLOADS) and len(args.workloads) == 4
    args = tool.parse_args(["p", "c", "--seeds", "0..9", "--workloads", "b_archive", "d_verify"])
    assert args.seeds == tuple(range(10))
    assert args.workloads == ["b_archive", "d_verify"]
    args = tool.parse_args(["p", "c", "--workloads", "b_archive,c_watched", "a_control"])
    assert args.workloads == ["b_archive", "c_watched", "a_control"]
    assert tool.parse_args(["p", "c", "--seeds", "3,5"]).seeds == (3, 5)
    assert tool.parse_args(["p", "c", "--seeds", "4"]).seeds == (4,)
    for bad in (["--seeds", "5..2"], ["--seeds", "-1"], ["--seeds", "a..b"], ["--seeds", "1,"],
                ["--workloads", "e_none"], ["--workloads"], ["--workloads", "b_archive,"]):
        with pytest.raises(SystemExit):
            tool.parse_args(["p", "c", *bad])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        tool.parse_args(["p", "c", "--workloads", "b_archive,e_none"])
    assert "unknown workload 'e_none'" in capsys.readouterr().err


def _checkout(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_source_lines_count_as_wc_does_and_end_every_comparison(tmp_path, capsys):
    # Newlines of *.py and */*.py under src/hoardbench and of tests/*.py, as
    # `cat | wc -l` counts them: a last line without a newline is not
    # counted, and deeper files and other suffixes are not read.
    parent = _checkout(tmp_path / "parent", {
        "src/hoardbench/__init__.py": "a\nb\n", "src/hoardbench/memory.py": "x\ny",
        "src/hoardbench/core/state.py": "1\n2\n3\n", "src/hoardbench/core/deep/skip.py": "no\n",
        "src/hoardbench/notes.txt": "no\n", "tests/test_a.py": "t\n" * 4,
        "tests/data/skip.py": "no\n",
    })
    change = _checkout(tmp_path / "change", {
        "src/hoardbench/__init__.py": "a\n", "src/hoardbench/core/state.py": "",
        "tests/test_a.py": "t\n", "tests/test_b.py": "t\nt\n",
    })
    tool = _tool()
    assert tool.line_count(parent, tool.LINE_COUNTS["source"]) == 6
    assert tool.line_count(change, tool.LINE_COUNTS["source"]) == 1
    # These checkouts cannot run hoardbench, so the comparison stops at its
    # first run; the counts still come last.
    assert tool.main([str(parent), str(change), "--workloads", "d_verify", "--seeds", "0"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == [
        "source lines: parent 6, change 1, difference -5",
        "test lines: parent 4, change 3, difference -1",
    ]


# A stand-in `hoardbench.cli`: `run` writes a results directory, and
# `report --in` rewrites its runs.jsonl with REPORTED and its timing.json.
_FAKE_CLI = '''import json, sys
from pathlib import Path
args = sys.argv[1:]
out = Path(args[args.index("--out" if args[0] == "run" else "--in") + 1])
if args[0] == "run":
    (out / "resolved_config.json").write_text(json.dumps({"output_dir": str(out)}))
    (out / "runs.jsonl").write_text('{"seed":0}\\n')
else:
    (out / "runs.jsonl").write_text(REPORTED)
(out / "timing.json").write_text(json.dumps(args))
'''


@pytest.mark.parametrize("reported, status", [
    ('{"seed":0}\n', "same"), ('{"seed":1}\n', "DIFFER: runs.jsonl"),
], ids=["same", "differs"])
def test_a_re_report_of_the_change_is_compared_with_its_run(tmp_path, capsys, reported, status):
    sides = []
    for side in ("parent", "change"):
        cli = f"REPORTED = {reported!r}\n" + _FAKE_CLI
        sides.append(_checkout(tmp_path / side, {
            "src/hoardbench/__init__.py": "", "src/hoardbench/cli.py": cli,
        }))
    code = _tool().main([*map(str, sides), "--workloads", "d_verify", "--seeds", "0"])
    out = capsys.readouterr().out.splitlines()
    assert out[:4] == [
        "d_verify seed 0 --jobs 1: change vs parent: 2 files same",
        "d_verify seed 0 --jobs 2: change vs parent: 2 files same",
        "d_verify seed 0 change: --jobs 2 vs --jobs 1: 2 files same",
        f"d_verify seed 0 change: report --in vs run: 2 files {status}",
    ]
    assert code == (0 if status == "same" else 1)
    if code:
        assert out[4] == "  runs.jsonl seed: differs, 1 records"
