"""When does the prefetcher hurt? Small structures with heavy revisits.

The hanoi-like workload chases a 6-node linked stack once, then spends
thousands of cycles relinking those same nodes (cache hits) while
streaming a move log through the cache. The prefetcher gets exactly one
read-cp hit per disk and no further pointer work, yet every cache miss
still pays its extra cycle - so the alternate topology runs slower.
"""

from chasesim import make_config, run_experiment

for topo in ("baseline", "alternate"):
    stats = run_experiment(make_config(topo, 5, "hanoi", disks=6))
    line = f"{topo:>9}: {stats.cycles:6d} cycles"
    if topo == "alternate":
        c = stats.counters
        line += (f"  (read-cp prefetcher hits: {c['pf_readcp_hits']},"
                 f" prefetches issued: {c['pf_prefetches_issued']})")
    print(line)

print("\nthe structure fits in 6 lines: after the initial chase there is")
print("nothing left to prefetch, but misses still pay the extra hop.")
