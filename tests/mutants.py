"""Mutation check: does the tier-1 suite catch each known fault?

Each mutant is one or more exact text patches to one file under
``src/chasesim``. For each mutant the script copies ``src/``, ``tests/`` and
``pyproject.toml`` into a temporary directory, applies its patches there and
runs tier-1 on the copy, stopping at the first failure. It runs the mutant's
``killer`` first, the test that killed it in the last full run, and the whole
suite (``PATCH_TEST``, which checks the patches themselves, left out) only if
that test passes. It prints ``killed`` if some test failed or ``survived`` if
none did, and ``stale killer`` beside a mutant that only the whole suite
killed: its killer should be updated to the test named there. A run that
outlasts ``TIMEOUT_S`` counts as killed: the mutant made some run hang. The
unmutated copy runs the whole suite first. Mutants run two at a time (one on a
single-CPU host). The working tree is never changed.

Run from anywhere; it takes a minute or two::

    python tests/mutants.py

Name mutants to run only those (the unmutated copy still runs first)::

    python tests/mutants.py cache-stale-decode pf-took-without-val

It exits nonzero if a name is unknown, if the unmutated copy fails, if a
patch does not match its file exactly once, or if a mutant not marked
equivalent survives. This file is not a test module: pytest collects only
``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
TESTS_FAILED = 1  # pytest's exit code when some test failed
# checks these patches against the unmutated tree, so it would fail on every
# mutant; tier-1 runs it
PATCH_TEST = "tests/test_source.py::test_every_mutant_patch_matches_its_file_once"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/chasesim
    old: str
    new: str
    # a tier-1 test that failed on it in the last full run; not a hypothesis
    # test, which draws new examples each run and may miss it
    killer: str = ""
    equivalent: str = ""  # why no test can tell it apart, if it is equivalent
    also: tuple[tuple[str, str], ...] = ()  # more (old, new) patches to the same file

    @property
    def patches(self) -> tuple[tuple[str, str], ...]:
        return ((self.old, self.new), *self.also)


MUTANTS = [
    Mutant("prefetch-off", "prefetcher.py",
           "        if nxt == 0:\n",
           "        if True:\n",
           killer="tests/test_acceptance.py::test_04_write_invalidation"),
    Mutant("write-invalidate-skipped", "prefetcher.py",
           "                if hit:\n                    # invalidate",
           "                if False:\n                    # invalidate",
           killer="tests/test_acceptance.py::test_04_write_invalidation"),
    Mutant("duplicate-suppression-skipped", "prefetcher.py",
           "if req.kind == WRITE or not hit:",
           "if req.kind == WRITE or not hit or not dvalid:",
           killer="tests/test_harness.py::test_run_until_skips_to_the_same_result_as_stepping"
                  "[hanoi-alternate-40]"),
    Mutant("memory-due-late", "memory.py",
           "self.system.cycle - self.stalls + self.latency, r)",
           "self.system.cycle - self.stalls + self.latency + 1, r)",
           killer="tests/test_cache.py::test_read_miss_then_hit_timing"),
    Mutant("memory-due-early", "memory.py",
           "self.system.cycle - self.stalls + self.latency, r)",
           "self.system.cycle - self.stalls + self.latency - 1, r)",
           killer="tests/test_activity.py::test_no_stepped_cycle_leaves_every_val_low[traversal]"),
    Mutant("di-never-entered", "prefetcher.py",
           "            self.state = WAIT_DATA_INVALID\n",
           "            self.state = TAG_CHECK\n",
           killer="tests/test_acceptance.py::test_05_duplicate_suppression"),
    Mutant("pf-eval-undeclared-reads", "prefetcher.py",
           '"eval": (("mem_resp.val", "cache_resp.rdy"),',
           '"eval": ((),',
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("same-cycle-fill-from-stale-entry", "prefetcher.py",
           "return hit, fill.data, True",
           "return hit, e.data, True",
           killer="tests/test_acceptance.py::test_05_duplicate_suppression"),
    Mutant("memory-stall-uncounted", "memory.py",
           "self.stalls += 1  # due head stalled",
           "pass  # due head stalled",
           killer="tests/test_memory.py::test_inelastic_stall_shifts_everything"),
    Mutant("compute-ends-early", "core.py",
           "self._compute_end = now + tok.cycles\n",
           "self._compute_end = now + tok.cycles - 1\n",
           killer="tests/test_acceptance.py::test_08_non_pointer_degradation"),
    Mutant("connect-accepts-any-attribute", "kernel.py",
           "            if port not in comp.ports:\n",
           "            if not hasattr(comp, port):\n",
           killer="tests/test_kernel.py::test_connect_refuses_a_name_no_block_declares[pf]"),
    Mutant("skip-drops-final-tick", "kernel.py",
           'f"            if k{i} == n:',
           'f"            if k{i} == n + 1:',
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("poll-skips-last-component", "kernel.py",
           'f"(k{i} := i{i}()) > 0"',
           'f"(k{i} := i{i}() if {i + 1 < components} else max_cycles - steps) > 0"',
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("skip-ignores-budget", "kernel.py",
           '"            n = max_cycles - steps"',
           '"            n = float(\'inf\')"',
           killer="tests/test_kernel.py::test_run_until_on_an_empty_system_skips_to_the_budget"),
    Mutant("skip-chain-drops-last-k", "kernel.py",
           'n = k{i}" for i in range(components)]',
           'n = k{i}" for i in range(components - 1)]',
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("trace-runs-compiled", "kernel.py",
           "        if self._trace is None and getattr(step,",
           "        if getattr(step,",
           killer="tests/test_kernel.py::test_a_watched_run_steps_every_cycle[trace]"),
    Mutant("probe-runs-compiled", "kernel.py",
           'if self._trace is None and getattr(step, "__func__", None) is _STEP:',
           "if self._trace is None:",
           killer="tests/test_kernel.py::test_a_watched_run_steps_every_cycle[probe]"),
    # a tick runs at the end of a one-cycle skip too: only an eval that
    # asserts a message tells the default 0 from 1
    Mutant("idle-default-one", "kernel.py",
           "0 means it may assert val now.\"\"\"\n        return 0\n",
           "0 means it may assert val now.\"\"\"\n        return 1\n",
           killer="tests/test_kernel.py::"
                  "test_a_component_that_asserts_every_cycle_transfers_every_cycle"),
    # the same cycles, but no compare of the run loop specializes
    Mutant("idle-forever-float", "kernel.py",
           "IDLE_FOREVER = 2**30 - 1\n",
           'IDLE_FOREVER = float("inf")\n',
           killer="tests/test_kernel.py::test_every_idle_cycles_result_is_an_int_below_one_digit"),
    Mutant("refill-mutates-core-request", "cache.py",
           "            self.mem_req.msg = MemRequest(kind, self.req.addr)\n",
           "            self.req.kind = kind\n            self.mem_req.msg = self.req\n",
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("refill-keeps-victim-dirty", "cache.py",
           "                line.dirty = False\n                line.data = r.data\n",
           "                line.data = r.data\n",
           killer="tests/test_golden.py::test_matrix_matches_golden"),
    Mutant("response-drops-hit-flag", "cache.py",
           "MemResponse(self.req.kind, self.req.opaque, word, self.was_hit)",
           # a positional call that loses its last argument builds with hit's
           # default, False
           "MemResponse(self.req.kind, self.req.opaque, word)",
           killer="tests/test_cache.py::test_read_miss_then_hit_timing"),
    Mutant("write-merge-misplaces-word", "cache.py",
           "line.data = line.data[:off] + self.req.data[:4] + line.data[off + 4:]",
           "line.data = self.req.data[:4] + line.data[4:]",
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("config-takes-unknown-workload", "harness.py",
           '    if name not in wl.WORKLOADS:\n'
           '        raise ConfigurationError(f"unknown workload {name!r}")\n',
           "",
           killer="tests/test_cli.py::test_run_bad_input_is_one_error_line"
                  "[argv0-unknown workload 'bogus']"),
    Mutant("array-over-the-address-budget", "workloads.py",
           '    if params["elements"] * WORD_BYTES > REGION_BYTES:\n'
           '        raise ConfigurationError("elements exceed the address budget")\n',
           "    pass\n",
           killer="tests/test_cli.py::test_run_bad_input_is_one_error_line"
                  "[argv12-elements exceed the address budget]"),
    Mutant("speedup-ignores-params", "harness.py",
           "    base = {r.config: r.cycles for r in results\n"
           "            if r.config.topology == \"baseline\" and r.completed}\n"
           "    rows = []\n"
           "    for r in results:\n"
           "        c = r.config\n"
           "        b = base.get(replace(c, topology=\"baseline\"))\n",
           "    base = {replace(r.config, params=()): r.cycles for r in results\n"
           "            if r.config.topology == \"baseline\" and r.completed}\n"
           "    rows = []\n"
           "    for r in results:\n"
           "        c = r.config\n"
           "        b = base.get(replace(c, topology=\"baseline\", params=()))\n",
           killer="tests/test_harness.py::test_speedup_against_the_baseline_of_the_same_params"),
    Mutant("unfinished-run-unreported", "cli.py",
           "        for r in unfinished:\n"
           "            c = r.config\n"
           "            sys.stderr.write(f\"unfinished: {c.workload} {c.topology} "
           "latency {c.latency} \"\n"
           "                             f\"reached max_cycles {c.max_cycles}; "
           "states {r.deadlock_states}\\n\")\n",
           "",
           killer="tests/test_cli.py::test_run_deadlock_exit_code"),
    Mutant("make-workload-skips-validator", "harness.py",
           "    params = _workload_params(name, seed, params)\n",
           # refuses an unknown workload (the defaults pass every check) and
           # fills in the defaults, but checks neither ranges nor fit
           "    _workload_params(name, 1, {})\n"
           "    params = {k: params.get(k, default)\n"
           "              for k, (default, _, _) in wl.WORKLOADS[name][1].items()}\n",
           killer="tests/test_harness.py::test_an_unknown_parameter_name_is_refused"
                  "[make_workload]"),
    Mutant("gate-drops-unknown-parameters", "harness.py",
           "    if unknown := [k for k in params if k not in wl.PARAMS]:\n"
           "        raise ConfigurationError(f\"unknown parameter {unknown[0]!r}\")\n",
           "",
           killer="tests/test_harness.py::test_an_unknown_parameter_name_is_refused[make_config]"),
    Mutant("range-check-off-by-one", "workloads.py",
           "value > high)", "value > high + 1)",
           killer="tests/test_cli.py::test_run_bad_input_is_one_error_line"
                  "[argv11-disks must be in 1..10]"),
    Mutant("image-packed-big-endian", "workloads.py",
           'return struct.pack(f"<{len(words)}I", *words)',
           'return struct.pack(f">{len(words)}I", *words)',
           killer="tests/test_acceptance.py::test_06_hanoi_pathology"),
    Mutant("load-image-drops-partial-tail", "memory.py",
           "            if tail < len(data):\n"
           "                self._merge_line(addr + tail, data[tail:])\n",
           "",
           killer="tests/test_harness.py::test_compute_of_no_cycles_takes_no_cycle[0-baseline]"),
    Mutant("init-and-stall-mem-letters-swapped", "prefetcher.py",
           '= "I", "TC", "IN", "PN", "BM", "WM", "SM", "DI"',
           '= "I", "TC", "SM", "PN", "BM", "WM", "IN", "DI"',
           killer="tests/test_prefetcher.py::test_stall_mem_when_sink_not_ready"),
    Mutant("cache-stale-decode", "cache.py",
           "                self.tag, self.idx, self.off = split_address(r.addr, CACHE_GEOMETRY)\n",
           "",
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("pf-stale-decode", "prefetcher.py",
           "            self.tag, self.idx, self.off = split_address(r.addr, PREFETCH_GEOMETRY)\n",
           "",
           killer="tests/test_acceptance.py::test_05_duplicate_suppression"),
    Mutant("cycle-drops-last-channel-reset", "kernel.py",
           'for c in (f"c{i}" for i in range(channels)):',
           'for c in (f"c{i}" for i in range(channels - 1)):',
           killer="tests/test_acceptance.py::test_01_coherence_oracle"),
    Mutant("pf-took-without-val", "prefetcher.py",
           "        elif self.mem_req.rdy and self.mem_req.msg is not None:\n"
           "            if req.kind == WRITE:",
           "        elif self.mem_req.rdy:\n            if req.kind == WRITE:",
           killer="tests/test_acceptance.py::test_05_duplicate_suppression"),
    Mutant("sweep-share-ignores-seed", "harness.py",
           "    key = (config.workload, config.seed, config.params)\n",
           "    key = (config.workload, config.params)\n",
           killer="tests/test_harness.py::test_sweep_gives_each_config_the_result_of_its_own_run"),
    Mutant("sweep-share-outlives-sweep", "harness.py",
           "    finally:\n        _sweep_share = None\n",
           "    finally:\n        pass\n",
           killer="tests/test_harness.py::test_no_share_outlives_a_sweep[returns]"),
    # behind a blocking cache only a refusing sink holds a response back
    Mutant("read-data-left-unsent", "cache.py",
           "        elif st == READ_DATA:\n"
           "            if self.core_resp.rdy and self.core_resp.msg is not None:\n",
           "        elif st == READ_DATA:\n"
           "            if self.core_resp.rdy or self.core_resp.msg is not None:\n",
           killer="tests/test_cache.py::test_a_refusing_sink_still_gets_every_response[read]"),
    Mutant("write-data-left-unsent", "cache.py",
           "        elif st == WRITE_DATA:\n"
           "            if self.core_resp.rdy and self.core_resp.msg is not None:\n",
           "        elif st == WRITE_DATA:\n"
           "            if self.core_resp.rdy or self.core_resp.msg is not None:\n",
           killer="tests/test_cache.py::test_a_refusing_sink_still_gets_every_response[write]"),
    Mutant("geometry-not-frozen", "messages.py",
           "@dataclass(frozen=True, slots=True)\nclass AddrGeometry:\n",
           "@dataclass(slots=True)\nclass AddrGeometry:\n",
           killer="tests/test_messages.py::test_geometry_is_frozen"),
    Mutant("tag-check-takes-two-cycles", "cache.py",
           "        elif st == TAG_CHECK:\n            self._tag_check()\n",
           "        elif st == TAG_CHECK:\n"
           "            self._tc_waited = not getattr(self, '_tc_waited', False)\n"
           "            if not self._tc_waited:\n"
           "                self._tag_check()\n",
           killer="tests/test_cache.py::test_read_miss_then_hit_timing"),
    Mutant("refill-update-skipped", "cache.py",
           "                self.state = REFILL_UPDATE\n",
           "                self.state = WRITE_DATA if self.req.kind == WRITE else READ_DATA\n",
           killer="tests/test_cache.py::test_read_miss_then_hit_timing"),
    Mutant("pf-forwards-miss-late", "prefetcher.py",
           "                if req.kind == WRITE or not hit:\n",
           "                late = (req.kind != WRITE and not hit\n"
           "                        and not getattr(self, '_was_late', False))\n"
           "                self._was_late = late\n"
           "                if late:\n"
           "                    pass  # forward the miss in the next cycle\n"
           "                elif req.kind == WRITE or not hit:\n",
           killer="tests/test_acceptance.py::test_03_miss_overhead_exactly_one_cycle"),
    Mutant("draws-keeps-old-state", "workloads.py",
           "        self.state = s\n        return out\n",
           "        return out\n",
           killer="tests/test_golden.py::test_matrix_matches_golden"),
    Mutant("di-falls-back-to-tag-check", "prefetcher.py",
           "        elif st == TAG_CHECK or st == WAIT_DATA_INVALID:\n"
           "            self._tick_tag_check()\n",
           "        elif st == TAG_CHECK or st == WAIT_DATA_INVALID:\n"
           "            self.state = TAG_CHECK\n"
           "            self._tick_tag_check()\n",
           equivalent="the tick re-enters DI at once unless a landed fill's "
                      "response is refused, and the blocking cache never "
                      "refuses one"),
    Mutant("claim-while-busy", "prefetcher.py",
           "        self.stats.prefetches_issued += 1\n"
           "        if self.buffer.busy:\n",
           "        self.stats.prefetches_issued += 1\n"
           "        tag, idx, _ = split_address(nxt, PREFETCH_GEOMETRY)\n"
           "        self.entries[idx] = PrefetchEntry(tag, True, False, ZERO_LINE, True)\n"
           "        if self.buffer.busy:\n",
           killer="tests/test_prefetcher.py::test_the_one_pending_entry_is_the_buffer_line"),
    Mutant("pf-forwards-request-unchanged", "prefetcher.py",
           "                    self.mem_req.msg = "
           "MemRequest(req.kind, req.addr, DEMAND_OPAQUE, req.data)\n",
           "                    self.mem_req.msg = req\n",
           killer="tests/test_prefetcher.py::test_forwarded_demands_carry_the_demand_opaque[1]"),
    Mutant("claim-keeps-data-valid", "prefetcher.py",
           "        e.tag_valid = True\n        e.data_valid = False\n",
           "        e.tag_valid = True\n",
           killer="tests/test_acceptance.py::test_06_hanoi_pathology"),
    Mutant("useful-hit-counted-every-time", "prefetcher.py",
           "                e.fresh = False\n",
           "",
           killer="tests/test_prefetcher.py::test_prefetched_line_hits_later_demand"),
    Mutant("stall-on-any-response", "prefetcher.py",
           "            elif self.mem_resp.msg is not None and not self.mem_resp.rdy:\n",
           "            elif self.mem_resp.msg is not None:\n",
           killer="tests/test_golden.py::test_trace_bytes_match_golden"),
    Mutant("pf-idle-drops-fill", "prefetcher.py",
           "            self.mem_resp.rdy = drain\n            return\n",
           "            self.mem_resp.rdy = False\n            return\n",
           killer="tests/test_acceptance.py::test_10_drop_policy"),
    # a stale high rdy under a low val changes nothing in a full system: only
    # audit_blocks, which fails a block call that leaves a declared rdy
    # unassigned, tells this from the model
    Mutant("core-rdy-only-while-waiting", "core.py",
           "            self.mem_req.msg = self._req\n        self.mem_resp.rdy = False\n",
           "            self.mem_req.msg = self._req\n",
           killer="tests/test_activity.py::test_eval_blocks_touch_exactly_their_declared_signals"),
    Mutant("load-log-compares-lengths-only", "core.py",
           "        return len(other) == len(self) and all(map(eq, self, other))\n",
           "        return len(other) == len(self)\n",
           killer="tests/test_kernel.py::test_the_load_log_differs_from_other_pairs"),
    # the log keeps every result, so only its bytes per load tell it apart
    Mutant("load-log-back-to-tuples", "core.py",
           "        self._load_words = array(\"I\")\n"
           "        self.loads = LoadLog(self._load_words)\n",
           "        self.loads = []\n",
           also=(("self._load_words.extend((self._req.addr, value))",
                  "self.loads.append((self._req.addr, value))"),),
           killer="tests/test_kernel.py::test_a_finished_run_holds_few_bytes_per_token"),
    Mutant("random-address-per-token", "workloads.py",
           "        addr = addrs[rng.randrange(RANDOM_LINES * LINE_WORDS)]\n",
           "        addr = WORD_BYTES * rng.randrange(RANDOM_LINES * LINE_WORDS)\n",
           killer="tests/test_kernel.py::test_a_random_build_allocates_few_bytes_per_token"),
]


def copy_tree(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, dest / sub, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def pytest_fails(tree: Path, *args: str, tests_only: bool = False) -> str:
    """Run pytest on tree, stopping at the first failure; "" if it passed,
    else the first failure's line (``FAILED <test> - ...``). With
    tests_only, only a failed test counts: any other exit, such as a killer
    that is no longer collected, reads as passing, so the suite decides."""
    # the bytecode of each module, and pytest's assertion rewrite of the test
    # and plugin modules (all of hypothesis), are written once under the run's
    # temporary directory rather than rebuilt by every process: about 1.1 s
    # of each run's 1.9 s on a 2-vCPU host
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONPYCACHEPREFIX=str(tree.parent / "pycache"))
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *args],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if out.returncode == 0 or tests_only and out.returncode != TESTS_FAILED:
        return ""
    # a failing test prints FAILED, a failing fixture teardown (the
    # declared-signal audit) or collection prints ERROR
    failed = [line for line in out.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit {out.returncode}"


def suite_fails(tree: Path) -> str:
    """Run tier-1 on tree; "" if it passed, else why it did not."""
    return pytest_fails(tree, "--deselect", PATCH_TEST)


def apply(tree: Path, m: Mutant):
    path = tree / "src" / "chasesim" / m.path
    text = path.read_text()
    for old, new in m.patches:
        if text.count(old) != 1:
            raise SystemExit(f"{m.name}: patch matches {m.path} "
                             f"{text.count(old)} times, not once")
        text = text.replace(old, new)
    path.write_text(text)


def verdict(tmp: Path, m: Mutant) -> tuple[str, bool]:
    """(the line printed after the mutant's name, whether it survived while
    not marked equivalent)."""
    tree = tmp / m.name
    copy_tree(tree)
    apply(tree, m)
    why = pytest_fails(tree, m.killer, tests_only=True) if m.killer else ""
    if not why:
        why = suite_fails(tree)
        if why and m.killer:
            why = f"stale killer: {why}"
    shutil.rmtree(tree)
    if why:
        return f"killed      {why}", False
    if m.equivalent:
        return f"survived    equivalent: {m.equivalent}", False
    return "SURVIVED", True


def main(names: list[str]) -> int:
    unknown = sorted(set(names) - {m.name for m in MUTANTS})
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    with tempfile.TemporaryDirectory(prefix="chasesim-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        why = suite_fails(clean)
        if why:
            print(f"the unmutated suite fails: {why}")
            return 1
        survivors = 0
        # each mutant's run is one pytest process: two at a time, never
        # more than the host's CPUs
        with ThreadPoolExecutor(max_workers=min(2, os.cpu_count() or 1)) as pool:
            for m, (line, survived) in zip(
                    chosen, pool.map(lambda m: verdict(Path(tmp), m), chosen)):
                survivors += survived
                print(f"{m.name:34} {line}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
