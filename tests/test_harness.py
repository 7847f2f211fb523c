"""Experiment harness: topologies, sweeps and reports."""

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chasesim import (WORKLOADS, Compute, ConfigurationError, ExperimentConfig,
                      Read, System, Write, build_system, cli, dump_image, harness,
                      make_config, make_workload, replay_program, run_experiment)
from chasesim.harness import (TOPOLOGIES, collect_counters, report,
                              result_rows, sweep)
from chasesim.messages import LINE_BYTES, word_bytes
from chasesim.workloads import HEAD_CELL
from conftest import (count_steps, mixes, per_call_random, pointer_stream,
                      run_against_oracle, run_program, tokens_of)
from golden.make_traces import SMALL


def run_handle(config):
    handle = build_system(config)
    assert handle.system.run_until(lambda: handle.core.done, config.max_cycles)
    handle.cache.flush_dirty(handle.memory.poke_line)
    return handle


def test_make_config_rejects_unknown_topology():
    with pytest.raises(ConfigurationError):
        make_config("sideways", 5, "traversal")


def test_config_rejects_unknown_workload():
    for build in (lambda: make_config("baseline", 5, "bogus"),
                  lambda: ExperimentConfig("baseline", 5, "bogus")):
        with pytest.raises(ConfigurationError) as e:
            build()
        assert str(e.value) == "unknown workload 'bogus'"


SETTINGS = [
    ("latency", "traversal"), ("max_cycles", "traversal"), ("seed", "traversal"),
    ("nodes", "traversal"), ("nodes_per_line", "traversal"), ("gap", "traversal"),
    ("inserts", "insertion"), ("buckets", "hashtable"), ("keys", "hashtable"),
    ("disks", "hanoi"), ("elements", "array"), ("n", "random"),
]


@pytest.mark.parametrize("field,workload,bad", [
    *(pytest.param(f, w, 2.5, id=f"{f}-{w}") for f, w in SETTINGS),
    *(pytest.param(f, w, True, id=f"{f}-{w}-bool") for f, w in SETTINGS),
])
def test_config_rejects_a_non_integer_setting(field, workload, bad):
    # 2.5 and True pass every range check, so unchecked a latency or gap of
    # 2.5 runs and reports a real-looking row, a list size of 2.5 raises a
    # TypeError deep in a builder, and a latency of True runs and prints
    # True in the latency column
    settings = {"latency": 5, field: bad}
    with pytest.raises(ConfigurationError, match=f"^{field} must be an integer$"):
        make_config("baseline", settings.pop("latency"), workload, **settings)


@pytest.mark.parametrize("build", [
    lambda: make_config("baseline", 5, "traversal", nodez=3),
    lambda: make_workload("traversal", nodez=3),
], ids=["make_config", "make_workload"])
def test_an_unknown_parameter_name_is_refused(build):
    # a misspelled size is not dropped like a name another workload takes:
    # dropped, it would run the default 64 nodes
    with pytest.raises(ConfigurationError, match="^unknown parameter 'nodez'$"):
        build()


def test_config_params_are_order_independent():
    a = make_config("baseline", 5, "traversal", nodes=8, gap=2)
    b = make_config("baseline", 5, "traversal", gap=2, nodes=8)
    assert a == b


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_configs_of_the_same_experiment_are_equal(topology):
    # a config keeps its filled-in parameters: a default spelled out and a
    # parameter its workload does not take change nothing
    assert (make_config(topology, 10, "traversal", nodes=16, gap=0)
            == make_config(topology, 10, "traversal", nodes=16))
    assert make_config(topology, 5, "hanoi", nodes=8) == make_config(topology, 5, "hanoi")
    assert make_config(topology, 5, "hanoi").params == (("disks", 6),)


@pytest.mark.parametrize("topology,components,channels", [
    ("baseline", ["core", "cache", "mem"],
     ["core.req", "core.resp", "cache.req", "cache.resp"]),
    ("alternate", ["core", "cache", "pf", "mem"],
     ["core.req", "core.resp", "cache.req", "cache.resp", "pf.req", "pf.resp"]),
])
def test_build_system_wiring_order(topology, components, channels):
    # the trace prints components and transfers in this order, and request
    # channels are the ones whose names end in ".req"
    system = build_system(make_config(topology, 5, "traversal", nodes=4)).system
    assert [c.name for c in system.components] == components
    assert [ch.name for ch in system.channels] == channels


def test_baseline_has_no_prefetcher_counters():
    stats = run_experiment(make_config("baseline", 5, "traversal", nodes=16))
    assert stats.completed
    assert all(v == 0 for k, v in stats.counters.items() if k.startswith("pf_"))
    assert stats.counters["cache_readcp_misses"] > 0


def test_alternate_traversal_prefetches_every_successor():
    # after the first node, every chased line was prefetched ahead of demand
    n = 32
    handle = run_handle(make_config("alternate", 10, "traversal", nodes=n))
    s = handle.prefetcher.stats
    assert s.useful_prefetch_hits == n - 1
    assert s.prefetch_fills >= n - 1


def test_alternate_run_matches_flat_replay():
    w = make_workload("insertion", nodes=32, inserts=4)
    run_against_oracle("alternate", w.program, w.segments, 4)


@settings(max_examples=40, deadline=None)
@given(topology=st.sampled_from(TOPOLOGIES), latency=st.integers(1, 64),
       seed=st.integers(0, 2**31 - 1), n=st.integers(0, 120), lines=st.integers(4, 64),
       mix=mixes())
def test_random_streams_match_the_oracle(topology, latency, seed, n, lines, mix):
    # _random's stream over a region of a few lines, so lines are revisited
    w = per_call_random(seed, n, lines, mix)
    run_against_oracle(topology, w.program, w.segments, latency)


@settings(max_examples=60, deadline=None)
@given(topology=st.sampled_from(TOPOLOGIES), latency=st.integers(1, 64),
       seed=st.integers(0, 2**31 - 1), n=st.integers(0, 300), lines=st.integers(17, 32),
       chase=st.floats(0, 1), write=st.floats(0, 1))
def test_pointer_streams_match_the_oracle(topology, latency, seed, n, lines, chase, write):
    # ReadCP targets hold pointers into the region, so prefetched lines are
    # demanded again and the buffer's data path is checked against the oracle;
    # the region has more lines than the cache, so dirty lines are evicted
    # through the prefetcher, and few enough that lines are revisited
    run_against_oracle(topology, *pointer_stream(n, seed, lines, chase, write), latency)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_refusing_stages_on_every_channel_keep_the_oracle(topology, seed):
    # behind a blocking cache memory never refuses a request: a stage on
    # each channel that refuses on a seeded schedule makes every handshake
    # of the core, cache and prefetcher wait, including the evictions and
    # prefetches; the cycles change, the loads and final image must not
    program = pointer_stream(300, seed, 32, 0.6, 0.3)
    system = run_against_oracle(topology, *program, 4, refusing=seed)
    assert system.cycle > run_program(topology, *program)[0].cycle


def test_a_pointer_stream_reaches_the_prefetch_buffer():
    system = run_against_oracle("alternate", *pointer_stream(120, 7, 32, 0.6, 0.3), 8)
    assert system.components[2].stats.readcp_hits > 0


@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_insertion_into_an_empty_list_starts_at_the_head(topology):
    w, cell = make_workload("insertion", seed=3, nodes=4, inserts=4), HEAD_CELL
    program, tokens = tokens_of(w.program)
    loads, flat = replay_program(program, w.segments)
    # an empty list has one place to insert: the head
    nodes = [cell + LINE_BYTES * (i + 1) for i in range(4)]
    new = tokens[1].addr
    assert new in nodes
    assert tokens[:3] == [Read(cell), Write(new, 0), Write(cell, new)]
    chain, addr = [], flat.read_word(cell)
    while addr:
        chain.append(addr)
        addr = flat.read_word(addr)
    assert sorted(chain) == nodes
    _, core = run_program(topology, w.program, w.segments)
    assert core.loads == loads


@pytest.mark.parametrize("topology", TOPOLOGIES)
@pytest.mark.parametrize("cycles", [0, -3])
def test_compute_of_no_cycles_takes_no_cycle(topology, cycles):
    segments = [(0x40, word_bytes(7)), (0x80, word_bytes(9))]
    plain, plain_core = run_program(topology, [Read(0x40), Read(0x80)], segments)
    system, core = run_program(
        topology, [Read(0x40), Compute(cycles), Read(0x80)], segments)
    assert system.cycle == plain.cycle
    assert core.loads == plain_core.loads == [(0x40, 7), (0x80, 9)]


def test_downstream_request_conservation():
    # every cache downstream request is classified by the prefetcher exactly
    # once: hits + misses + writes == downstream requests
    for name in ("traversal", "hashtable", "hanoi"):
        handle = run_handle(make_config("alternate", 5, name))
        p = handle.prefetcher.stats
        classified = (p.read_hits + p.readcp_hits + p.read_misses
                      + p.readcp_misses + p.writes)
        downstream = collect_counters(handle)["cache_downstream_requests"]
        assert classified == downstream > 0, name


def test_sweep_produces_row_per_config_and_survives_errors():
    configs = [make_config(t, lat, "traversal", nodes=8)
               for lat in (2, 5) for t in ("baseline", "alternate")]
    with pytest.raises(ConfigurationError, match="nodes must be >= 1"):
        make_config("baseline", 2, "traversal", nodes=0)
    # a config built by hand passes the same checks, so no bad row can reach
    # sweep
    with pytest.raises(ConfigurationError, match="nodes must be >= 1"):
        ExperimentConfig("baseline", 2, "traversal", (("nodes", 0),))
    results = sweep(configs)
    assert len(results) == 4
    assert all(r.completed for r in results)
    assert [r.config for r in results] == configs
    header, rows = result_rows(results)
    first = header.index("speedup") + 1
    assert all(isinstance(v, int) for row in rows for v in row[first:])


def test_speedup_against_matching_baseline():
    configs = [make_config(t, 10, "traversal", nodes=32)
               for t in ("baseline", "alternate")]
    results = sweep(configs)
    header, rows = result_rows(results)
    i = header.index("speedup")
    assert rows[0][i] == "1.000000"  # baseline vs itself
    assert float(rows[1][i]) > 1.0   # prefetching helps pointer chasing


def test_speedup_against_the_baseline_of_the_same_params():
    # rows that share workload, latency and seed but not params each divide
    # their own baseline's cycles
    configs = [make_config(t, 10, "traversal", nodes=32, gap=gap)
               for gap in (0, 12) for t in ("baseline", "alternate")]
    results = sweep(configs)
    header, rows = result_rows(results)
    i = header.index("speedup")
    assert [r.cycles for r in results] == [480, 388, 864, 586]
    assert [row[i] for row in rows] == ["1.000000", "1.237113",
                                        "1.000000", "1.474403"]


def test_speedup_blank_without_matching_baseline():
    results = sweep([make_config("alternate", 10, "traversal", nodes=8)])
    header, rows = result_rows(results)
    assert rows[0][header.index("speedup")] == ""


def test_report_csv_shapes():
    assert report([], "csv") == ("workload,topology,latency,cycles,speedup\n")
    results = sweep([make_config("baseline", 2, "traversal", nodes=8)])
    text = report(results, "csv")
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("workload,topology,latency,cycles,speedup,")
    assert lines[1].startswith("traversal,baseline,2,")


def test_report_csv_reproducible():
    def once():
        return report(sweep([make_config(t, lat, "traversal", nodes=16)
                             for lat in (2, 5) for t in ("baseline", "alternate")]),
                      "csv")

    assert once() == once()


def test_report_json_roundtrip():
    results = sweep([make_config("baseline", 2, "array", elements=32)])
    rows = json.loads(report(results, "json"))
    assert len(rows) == 1
    assert rows[0]["workload"] == "array"
    assert rows[0]["latency"] == 2
    assert isinstance(rows[0]["cycles"], int)


def test_report_table_and_unknown_format():
    results = sweep([make_config("baseline", 2, "array", elements=32)])
    table = report(results, "table")
    assert table.splitlines()[0].startswith("workload")
    with pytest.raises(ConfigurationError):
        report(results, "wat")


def test_max_cycles_reported_as_incomplete():
    stats = run_experiment(make_config("baseline", 5, "traversal",
                                       nodes=64, max_cycles=10))
    assert not stats.completed
    assert stats.deadlock_states is not None
    assert "core" in stats.deadlock_states


def test_incomplete_row_reports_deadlock_and_its_counters():
    stats = run_experiment(make_config("baseline", 5, "traversal",
                                       nodes=64, max_cycles=10))
    header, rows = result_rows([stats])
    assert rows[0][header.index("cycles")] == "error:max_cycles"
    assert rows[0][header.index("speedup") + 1:] == \
        [stats.counters[k] for k in header[header.index("speedup") + 1:]]


def test_run_determinism():
    a = run_experiment(make_config("alternate", 5, "hashtable"))
    b = run_experiment(make_config("alternate", 5, "hashtable"))
    assert (a.cycles, a.counters) == (b.cycles, b.counters)


# -- builds shared within a sweep --

def count_builds(monkeypatch):
    """Make harness.make_workload record each call's workload name in the
    returned list."""
    builds = []

    def counted(name, *args, **kwargs):
        builds.append(name)
        return make_workload(name, *args, **kwargs)

    monkeypatch.setattr(harness, "make_workload", counted)
    return builds


def test_sweep_gives_each_config_the_result_of_its_own_run():
    # neighbours that differ only in seed or only in params each get their
    # own build, and a key seen before another is built again
    by_seed = [make_config("alternate", 5, "random", seed=s, n=300) for s in (1, 2)]
    by_params = [make_config(t, 5, "traversal", nodes=n) for n in (8, 16) for t in TOPOLOGIES]
    configs = by_seed + by_params + by_seed[:1]
    results = sweep(configs)
    assert results[0].counters != results[1].counters  # the seeds tell apart
    for cfg, got in zip(configs, results):
        want = run_experiment(cfg)
        assert (got.cycles, got.completed, got.counters) == \
            (want.cycles, want.completed, want.counters), cfg


def test_the_paper_sweep_builds_each_workload_once(monkeypatch, capsys):
    # 5 workloads x 5 latencies x 2 topologies: one build per workload
    builds = count_builds(monkeypatch)
    names = ["traversal", "array", "hanoi", "hashtable", "insertion"]
    assert cli.main(["sweep", "--workloads", ",".join(names),
                     "--latencies", "2,5,10,20,40", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 50
    assert builds == names


def test_a_spelled_out_default_finds_its_baseline_and_its_build(monkeypatch):
    builds = count_builds(monkeypatch)
    results = sweep([make_config("baseline", 10, "traversal", nodes=16),
                     make_config("alternate", 10, "traversal", nodes=16, gap=0)])
    header, rows = result_rows(results)
    assert rows[1][header.index("speedup")] == "1.224490"
    assert builds == ["traversal"]


@pytest.mark.parametrize("ends", ["returns", "raises"])
def test_no_share_outlives_a_sweep(monkeypatch, ends):
    # outside a sweep every run builds its own workload, also after a sweep
    # whose run raised
    builds = count_builds(monkeypatch)
    cfg = make_config("baseline", 2, "traversal", nodes=8)
    if ends == "returns":
        sweep([cfg])
    else:
        def run_fails(config, handle):
            raise RuntimeError("run failed")

        with monkeypatch.context() as m, pytest.raises(RuntimeError, match="run failed"):
            m.setattr(harness, "run_built", run_fails)
            sweep([cfg])
    run_experiment(cfg)
    run_experiment(cfg)
    assert len(builds) == 3


# -- idle-cycle skipping --

def finish(config, advance, trace=None):
    """Run config to core.done with advance(handle), traced into trace if
    given; return what the run made and what advance returned."""
    handle = build_system(config, trace=trace)
    got = advance(handle)
    handle.cache.flush_dirty(handle.memory.poke_line)
    transfers = {ch.name: ch.transfers for ch in handle.system.channels}
    return (handle.system.cycle, collect_counters(handle),
            dump_image(handle.memory.store), transfers), got


def stepped(handle):
    steps = 0
    while not handle.core.done and steps < 200_000:
        handle.system.step()
        steps += 1
    assert handle.core.done  # a deadlock fails within skipping's budget
    return steps


def running(handle):
    """run_until: it skips, unless a trace or a probe watches the system."""
    assert handle.system.run_until(lambda: handle.core.done, max_cycles=200_000)


def skipping(handle):
    """An unwatched run_until; returns how many cycles it stepped, counted
    by a passive component."""
    counter = count_steps(handle.system)
    running(handle)
    return counter.ticks


def test_skip_table_covers_every_workload():
    assert set(SMALL) == set(WORKLOADS)


@pytest.mark.parametrize("latency", (1, 4, 40))
@pytest.mark.parametrize("topology", ("baseline", "alternate"))
@pytest.mark.parametrize("name", sorted(SMALL))
def test_run_until_skips_to_the_same_result_as_stepping(name, topology, latency):
    # cycles, every counter, the final image and each channel's transfers
    # must not depend on whether idle cycles are stepped one by one or
    # skipped; a traced run_until steps, and writes the stepped loop's bytes
    cfg = make_config(topology, latency, name, **SMALL[name])
    trace, traced = io.StringIO(), io.StringIO()
    want, cycles = finish(cfg, stepped, trace)
    got, steps = finish(cfg, skipping)
    assert got == finish(cfg, running, traced)[0] == want
    assert traced.getvalue() == trace.getvalue()
    # two independent counts: the markers the trace writer prints before the
    # ticks, and the count the compiled cycle keeps as it resets each channel
    text = trace.getvalue()
    assert want[3] == {ch: text.count(f" [{ch} ") for ch in want[3]}
    assert want[0] == cycles
    if latency == 40:
        assert steps < cycles  # memory waits are skipped, not stepped


@pytest.mark.parametrize("topology", ("baseline", "alternate"))
def test_a_probe_on_the_class_sees_every_cycle(monkeypatch, topology):
    # perfbench's Tracer replaces System.step on the class: run_until then
    # hands it every cycle, the ones an unwatched run skips too, and the
    # results are the unwatched run's
    cfg = make_config(topology, 40, "random", **SMALL["random"])
    want, steps = finish(cfg, skipping)
    probed = [0]
    step = System.step

    def probe(system):
        probed[0] += 1
        step(system)
    monkeypatch.setattr(System, "step", probe)
    got, _ = finish(cfg, running)
    assert probed[0] == got[0] > steps > 0
    assert got == want
