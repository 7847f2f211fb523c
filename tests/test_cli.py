"""Command-line interface: run and sweep subcommands."""

import json
import os
import subprocess
import sys

import pytest

from chasesim import WORKLOADS, make_config, report, run_experiment
from chasesim.cli import main
from conftest import SRC


def assert_one_error_line(argv, message, capsys):
    """main(argv) exits 2 and prints only ``chasesim: error: <message>``."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"chasesim: error: {message}\n"


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
    # the run is live when its budget runs out: it says so, and where it stood
    rc = main(["run", "--workload", "traversal", "--nodes", "64",
               "--max-cycles", "10"])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err == ("unfinished: traversal alternate latency 5 reached "
                            "max_cycles 10; states {'core': 'WT', 'cache': 'RD', "
                            "'pf': 'BM', 'mem': 'p0'}\n")


def test_exit_codes_reach_the_process(tmp_path):
    # main's return value is the exit status of ``python -m chasesim.cli``
    def chasesim(*argv):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        return subprocess.run([sys.executable, "-m", "chasesim.cli", "run",
                               "--workload", "traversal", *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True)

    done = chasesim("--nodes", "8")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.startswith("workload")
    late = chasesim("--max-cycles", "10")
    assert late.returncode == 1
    assert [line[:12] for line in late.stderr.splitlines()] == ["unfinished: "]
    bad = chasesim("--latency", "0")
    assert (bad.returncode, bad.stdout) == (2, "")
    assert [line[:16] for line in bad.stderr.splitlines()] == ["chasesim: error:"]


def test_sweep_names_each_unfinished_run(capsys):
    assert main(["sweep", "--workloads", "traversal", "--nodes", "64",
                 "--latencies", "5,40", "--max-cycles", "300"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split("; states ")[0] for line in lines] == [
        f"unfinished: traversal {topo} latency {lat} reached max_cycles 300"
        for lat in (5, 40) for topo in ("baseline", "alternate")]
    assert all("'core': " in line for line in lines)


@pytest.mark.parametrize("budget", [[], ["--max-cycles", "300"]], ids=["finished", "unfinished"])
def test_run_and_sweep_of_one_config_print_the_same(budget, capsys):
    # both commands take one code path from their configs to the exit code
    common = ["--nodes", "64", *budget, "--format", "csv"]
    rc_run = main(["run", "--workload", "traversal", "--latency", "5", *common])
    run_out = capsys.readouterr()
    rc_sweep = main(["sweep", "--workloads", "traversal", "--latencies", "5",
                     "--topologies", "alternate", *common])
    assert (rc_sweep, capsys.readouterr()) == (rc_run, run_out)
    assert rc_run == (1 if budget else 0)


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


def test_run_random_takes_n(capsys):
    assert main(["run", "--workload", "random", "--n", "300", "--format", "csv"]) == 0
    expect = report([run_experiment(make_config("alternate", 5, "random", n=300))], "csv")
    assert capsys.readouterr().out == expect


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_every_workload_parameter_is_a_flag(command, capsys):
    # the flags come from WORKLOADS, and each one's help names the default
    # of every workload that takes it
    with pytest.raises(SystemExit):
        main([command, "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for name, (_, ranges, _) in WORKLOADS.items():
        for param, (default, _, _) in ranges.items():
            flag = "--" + param.replace("_", "-")
            assert f"[{flag} {param.upper()}]" in help_text
            entry = help_text.split(f" {flag} {param.upper()} default: ")[1]
            assert f"{name} {default}" in entry.split(" --")[0].split(", ")


@pytest.mark.parametrize("argv,message", [
    (["--workload", "bogus"], "unknown workload 'bogus'"),
    (["--workload", "hanoi", "--latency", "0"], "memory latency must be >= 1 cycle"),
    (["--workload", "hanoi", "--max-cycles", "0"], "max_cycles must be >= 1"),
    (["--workload", "insertion", "--inserts", "100"],
     "not enough pool nodes for the requested inserts"),
    (["--workload", "insertion", "--inserts", "-1"], "inserts must be >= 0"),
    (["--workload", "array", "--elements", "-1"], "elements must be >= 0"),
    (["--workload", "hashtable", "--keys", "-1"], "keys must be in 0..16777215"),
    (["--workload", "hashtable", "--buckets", "0"], "buckets must be >= 1"),
    (["--workload", "traversal", "--gap", "-1"], "gap must be >= 0"),
    (["--workload", "array", "--gap", "-1"], "gap must be >= 0"),
    (["--workload", "traversal", "--nodes", "0"], "nodes must be >= 1"),
    (["--workload", "hanoi", "--disks", "11"], "disks must be in 1..10"),
    # one word over the 1 MiB region
    (["--workload", "array", "--elements", "262145"],
     "elements exceed the address budget"),
    (["--workload", "traversal", "--nodes", "2", "--trace", "/nonexistent/x.txt"],
     "cannot open --trace '/nonexistent/x.txt': No such file or directory"),
    (["--workload", "traversal", "--nodes-per-line", "3"], "nodes_per_line must be 1 or 2"),
    # argparse's own errors are one line too
    (["--workload", "traversal", "--nodes", "4.5"],
     "argument --nodes: invalid int value: '4.5'"),
    (["--workload", "traversal", "--topology", "sideways"], "unknown topology 'sideways'"),
    (["--workload", "traversal", "--format", "xml"],
     "argument --format: invalid choice: 'xml' (choose from 'table', 'csv', 'json')"),
])
def test_run_bad_input_is_one_error_line(argv, message, capsys):
    assert_one_error_line(["run", *argv], message, capsys)


@pytest.mark.parametrize("command", [["run", "--workload"], ["sweep", "--workloads"]])
def test_hashtable_over_the_address_budget_is_one_error_line(command, capsys):
    # 70000 keys need more than the 1 MiB region: refused before any build
    assert_one_error_line([*command, "hashtable", "--keys", "70000"],
                          "buckets and keys exceed the address budget", capsys)


@pytest.mark.parametrize("argv", [
    ["--workload", "bogus"],
    ["--workload", "hanoi", "--latency", "0"],
    ["--workload", "hanoi", "--max-cycles", "0"],
])
def test_run_bad_input_leaves_trace_file_alone(argv, tmp_path, capsys):
    kept, absent = tmp_path / "kept.txt", tmp_path / "absent.txt"
    kept.write_text("earlier trace\n")
    for trace in (kept, absent):
        assert main(["run", *argv, "--trace", str(trace)]) == 2
    assert capsys.readouterr().out == ""
    assert kept.read_text() == "earlier trace\n"
    assert not absent.exists()


def test_sweep_bad_latencies_is_one_error_line(capsys):
    assert_one_error_line(["sweep", "--workloads", "hanoi", "--latencies", "2,x"],
                          "--latencies must be comma-separated integers, not '2,x'",
                          capsys)


@pytest.mark.parametrize("argv,message", [
    (["--latencies", ""], "--latencies must name at least one value"),
    (["--latencies", ","], "--latencies must name at least one value"),
    (["--workloads", ","], "--workloads must name at least one value"),
    (["--topologies", ""], "--topologies must name at least one value"),
    (["--latencies", "2,0"], "memory latency must be >= 1 cycle"),
])
def test_sweep_empty_or_bad_list_is_one_error_line(argv, message, capsys):
    # an empty sweep would print only the CSV header and look like a success
    assert_one_error_line(["sweep", "--workloads", "hanoi", *argv, "--format", "csv"],
                          message, capsys)


@pytest.mark.parametrize("argv,message", [
    (["--workloads", "hashtable", "--keys", "-1"], "keys must be in 0..16777215"),
    (["--workloads", "array,traversal", "--gap", "-1"], "gap must be >= 0"),
    (["--workloads", "hanoi,insertion", "--inserts", "100"],
     "not enough pool nodes for the requested inserts"),
    (["--workloads", "bogus,hanoi"], "unknown workload 'bogus'"),
    (["--workloads", "hanoi,array", "--elements", "262145"],
     "elements exceed the address budget"),
    (["--workloads", "hanoi,insertion", "--nodes-per-line", "3"],
     "nodes_per_line must be 1 or 2"),
])
def test_sweep_bad_size_is_one_error_line(argv, message, capsys):
    # every config is checked when it is made: no row is simulated
    assert_one_error_line(["sweep", *argv, "--latencies", "5", "--format", "csv"],
                          message, capsys)


def test_unknown_subcommand_rejected(capsys):
    assert_one_error_line(["frobnicate"], "argument cmd: invalid choice: 'frobnicate' "
                          "(choose from 'run', 'sweep')", capsys)
