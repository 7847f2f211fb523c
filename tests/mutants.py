"""Mutation check: does the tier-1 suite catch each known fault?

Each mutant is an exact text patch to one file under ``src/chasesim``. For
each mutant the script copies ``src/``, ``tests/`` and ``pyproject.toml`` into
a temporary directory, applies the patch there, runs the tier-1 suite on the
copy (stopping at the first failure; ``PATCH_TEST``, which checks the
patches themselves, is left out) and prints ``killed`` if some test
failed or ``survived`` if none did. A run that outlasts ``TIMEOUT_S`` counts
as killed: the mutant made some run hang. The working tree is never changed.

Run from anywhere; it takes a few minutes::

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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 300
# checks these patches against the unmutated tree, so it would fail on every
# mutant; tier-1 runs it
PATCH_TEST = "tests/test_source.py::test_every_mutant_patch_matches_its_file_once"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to src/chasesim
    old: str
    new: str
    equivalent: str = ""  # why no test can tell it apart, if it is equivalent


MUTANTS = [
    Mutant("prefetch-off", "prefetcher.py",
           "        if nxt == 0:\n",
           "        if True:\n"),
    Mutant("write-invalidate-skipped", "prefetcher.py",
           "                if hit:\n                    # invalidate",
           "                if False:\n                    # invalidate"),
    Mutant("duplicate-suppression-skipped", "prefetcher.py",
           "if req.kind == WRITE or not hit:",
           "if req.kind == WRITE or not hit or not dvalid:"),
    Mutant("memory-due-late", "memory.py",
           "self.system.cycle - self.stalls + self.latency, r)",
           "self.system.cycle - self.stalls + self.latency + 1, r)"),
    Mutant("memory-due-early", "memory.py",
           "self.system.cycle - self.stalls + self.latency, r)",
           "self.system.cycle - self.stalls + self.latency - 1, r)"),
    Mutant("di-never-entered", "prefetcher.py",
           "            self.state = WAIT_DATA_INVALID\n",
           "            self.state = TAG_CHECK\n"),
    Mutant("pf-eval-undeclared-reads", "prefetcher.py",
           '"eval": (("mem_resp.val", "cache_resp.rdy"),',
           '"eval": ((),'),
    Mutant("same-cycle-fill-from-stale-entry", "prefetcher.py",
           "return hit, fill.data, True",
           "return hit, e.data, True"),
    Mutant("memory-stall-uncounted", "memory.py",
           "self.stalls += 1  # due head stalled",
           "pass  # due head stalled"),
    Mutant("compute-ends-early", "core.py",
           "self._compute_end = now + tok.cycles\n",
           "self._compute_end = now + tok.cycles - 1\n"),
    Mutant("skip-drops-final-tick", "kernel.py",
           'f"        if k{i} == n:',
           'f"        if k{i} == n + 1:'),
    Mutant("poll-skips-last-component", "kernel.py",
           'f"        k{i} = i{i}()"',
           'f"        k{i} = i{i}() if {i + 1 < components} else n"'),
    Mutant("refill-mutates-core-request", "cache.py",
           "            self.mem_req.send(MemRequest(kind, self.req.addr, opaque=0))\n",
           "            self.req.kind = kind\n            self.mem_req.send(self.req)\n"),
    Mutant("config-takes-unknown-workload", "harness.py",
           '    if name not in wl.WORKLOADS:\n'
           '        raise ConfigurationError(f"unknown workload {name!r}")\n',
           ""),
    Mutant("array-over-the-address-budget", "workloads.py",
           '    if params["elements"] * WORD_BYTES > REGION_BYTES:\n'
           '        raise ConfigurationError("elements exceed the address budget")\n',
           "    pass\n"),
    Mutant("speedup-ignores-params", "harness.py",
           "    base = {r.config: r.cycles for r in results\n"
           "            if r.config.topology == \"baseline\" and r.completed}\n"
           "    out = {}\n"
           "    for i, r in enumerate(results):\n"
           "        b = base.get(replace(r.config, topology=\"baseline\"))\n",
           "    base = {replace(r.config, params=()): r.cycles for r in results\n"
           "            if r.config.topology == \"baseline\" and r.completed}\n"
           "    out = {}\n"
           "    for i, r in enumerate(results):\n"
           "        b = base.get(replace(r.config, topology=\"baseline\", params=()))\n"),
    Mutant("make-workload-skips-validator", "harness.py",
           "    params = _workload_params(name, params)\n",
           # refuses an unknown name (the defaults pass every check) and
           # fills in the defaults, but checks neither ranges nor fit
           "    _workload_params(name, {})\n"
           "    params = {k: params.get(k, default)\n"
           "              for k, (default, _, _) in wl.WORKLOADS[name][1].items()}\n"),
    Mutant("range-check-off-by-one", "workloads.py",
           "value > high)", "value > high + 1)"),
    Mutant("image-packed-big-endian", "workloads.py",
           'return struct.pack(f"<{len(words)}I", *words)',
           'return struct.pack(f">{len(words)}I", *words)'),
    Mutant("load-image-drops-partial-tail", "memory.py",
           "            if tail < len(data):\n"
           "                self._merge_line(addr + tail, data[tail:])\n",
           ""),
    Mutant("init-and-stall-mem-letters-swapped", "prefetcher.py",
           '= "I", "TC", "IN", "PN", "BM", "WM", "SM", "DI"',
           '= "I", "TC", "SM", "PN", "BM", "WM", "IN", "DI"'),
    Mutant("cache-stale-decode", "cache.py",
           "                self.tag, self.idx, self.off = split_address(r.addr, CACHE_GEOMETRY)\n",
           ""),
    Mutant("pf-stale-decode", "prefetcher.py",
           "            self.tag, self.idx, self.off = split_address(r.addr, PREFETCH_GEOMETRY)\n",
           ""),
    Mutant("cycle-drops-last-channel-reset", "kernel.py",
           'for c in (f"c{i}" for i in range(channels)):',
           'for c in (f"c{i}" for i in range(channels - 1)):'),
    Mutant("pf-took-without-val", "prefetcher.py",
           "        elif self.mem_req.val and self.mem_req.rdy:\n            if req.kind == WRITE:",
           "        elif self.mem_req.rdy:\n            if req.kind == WRITE:"),
    Mutant("sweep-share-ignores-seed", "harness.py",
           "    key = (config.workload, config.seed, config.params)\n",
           "    key = (config.workload, config.params)\n"),
    Mutant("sweep-share-outlives-sweep", "harness.py",
           "    finally:\n        _sweep_share = None\n",
           "    finally:\n        pass\n"),
    Mutant("tag-check-takes-two-cycles", "cache.py",
           "        elif st == TAG_CHECK:\n            self._tag_check()\n",
           "        elif st == TAG_CHECK:\n"
           "            self._tc_waited = not getattr(self, '_tc_waited', False)\n"
           "            if not self._tc_waited:\n"
           "                self._tag_check()\n"),
    Mutant("refill-update-skipped", "cache.py",
           "                self.state = REFILL_UPDATE\n",
           "                self.state = WRITE_DATA if self.req.kind == WRITE else READ_DATA\n"),
    Mutant("pf-forwards-miss-late", "prefetcher.py",
           "                if req.kind == WRITE or not hit:\n",
           "                late = (req.kind != WRITE and not hit\n"
           "                        and not getattr(self, '_was_late', False))\n"
           "                self._was_late = late\n"
           "                if late:\n"
           "                    pass  # forward the miss in the next cycle\n"
           "                elif req.kind == WRITE or not hit:\n"),
    Mutant("draws-keeps-old-state", "workloads.py",
           "        self.state = s\n        return out\n",
           "        return out\n"),
    Mutant("di-falls-back-to-tag-check", "prefetcher.py",
           "        elif st == TAG_CHECK or st == WAIT_DATA_INVALID:\n"
           "            self._tick_tag_check()\n",
           "        elif st == TAG_CHECK or st == WAIT_DATA_INVALID:\n"
           "            self.state = TAG_CHECK\n"
           "            self._tick_tag_check()\n",
           equivalent="the tick re-enters DI at once unless a landed fill's "
                      "response is refused, and the blocking cache never "
                      "refuses one"),
]


def copy_tree(dest: Path):
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for sub in ("src", "tests"):
        shutil.copytree(ROOT / sub, dest / sub, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def suite_fails(tree: Path) -> str:
    """Run tier-1 on tree; "" if it passed, else why it did not."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    try:
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             "--deselect", PATCH_TEST],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT_S} s"
    if out.returncode == 0:
        return ""
    # a failing test prints FAILED, a failing fixture teardown (the
    # declared-signal audit) or collection prints ERROR
    failed = [line for line in out.stdout.splitlines()
              if line.startswith(("FAILED", "ERROR"))]
    return failed[0] if failed else f"pytest exit {out.returncode}"


def apply(tree: Path, m: Mutant):
    path = tree / "src" / "chasesim" / m.path
    text = path.read_text()
    if text.count(m.old) != 1:
        raise SystemExit(f"{m.name}: patch matches {m.path} "
                         f"{text.count(m.old)} times, not once")
    path.write_text(text.replace(m.old, m.new))


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
        for m in chosen:
            tree = Path(tmp) / m.name
            copy_tree(tree)
            apply(tree, m)
            why = suite_fails(tree)
            shutil.rmtree(tree)
            if why:
                verdict = f"killed      {why}"
            elif m.equivalent:
                verdict = f"survived    equivalent: {m.equivalent}"
            else:
                verdict = "SURVIVED"
                survivors += 1
            print(f"{m.name:34} {verdict}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
