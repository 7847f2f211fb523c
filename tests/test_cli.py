"""Command-line interface: run and sweep subcommands."""

import json

import pytest

from chasesim import WORKLOADS, make_config, report, run_experiment
from chasesim.cli import main


def test_run_csv(capsys):
    assert main(["run", "--workload", "traversal", "--nodes", "8",
                 "--latency", "5", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("workload,topology,latency,cycles")
    assert lines[1].startswith("traversal,alternate,5,")


def test_run_json_baseline(capsys):
    assert main(["run", "--workload", "array", "--elements", "16",
                 "--topology", "baseline", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["topology"] == "baseline"
    assert rows[0]["pf_prefetches_issued"] == 0


def test_run_writes_trace_file(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    assert main(["run", "--workload", "traversal", "--nodes", "4",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()
    text = trace.read_text()
    assert "core:" in text and "pf:" in text and "mem:" in text
    assert len(text.splitlines()) > 10


def test_run_deadlock_exit_code(capsys):
    rc = main(["run", "--workload", "traversal", "--nodes", "64",
               "--max-cycles", "10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "deadlock" in captured.err


def test_sweep_row_count(capsys):
    assert main(["sweep", "--workloads", "traversal,array",
                 "--latencies", "2,5", "--nodes", "8", "--elements", "16",
                 "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # 2 workloads x 2 latencies x 2 topologies + header
    assert len(lines) == 9


def test_sweep_single_topology(capsys):
    assert main(["sweep", "--workloads", "hanoi", "--disks", "3",
                 "--latencies", "5", "--topologies", "alternate",
                 "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["topology"] for r in rows] == ["alternate"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_run_defaults_match_library_defaults(name, capsys):
    # with no size flags the command line must run exactly what the library
    # runs by default: both take their defaults from WORKLOADS
    assert main(["run", "--workload", name, "--format", "csv"]) == 0
    expect = report([run_experiment(make_config("alternate", 5, name))], "csv")
    assert capsys.readouterr().out == expect


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
