"""Watch the prefetcher work, cycle by cycle.

Runs a 4-node traversal with a per-cycle trace: each line shows the
cycle number, every component's FSM state, and any channel transfers
(with the message rendered). Look for the op=01 read issued by the
prefetcher right after each cp response, and the later cp hits that
never reach memory.
"""

import io

from chasesim import make_config, run_experiment

trace = io.StringIO()
stats = run_experiment(make_config("alternate", 5, "traversal", nodes=4),
                       trace=trace)

print(trace.getvalue())
c = stats.counters
print(f"completed in {stats.cycles} cycles")
print(f"prefetches issued={c['pf_prefetches_issued']} fills={c['pf_prefetch_fills']} "
      f"useful hits={c['pf_useful_prefetch_hits']}")
