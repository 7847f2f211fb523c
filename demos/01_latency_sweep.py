"""How much does pointer-chase prefetching help as memory gets slower?

Runs the linked-list traversal benchmark (64 nodes, one per cache line,
a 12-cycle compute gap between nodes) through both topologies across a
range of memory latencies and prints the improvement curve. The benefit
grows with latency while prefetch can still be overlapped, peaks, then
shrinks once the serial chase dominates again.
"""

from chasesim import make_config
from chasesim.harness import report, sweep

LATENCIES = (2, 5, 10, 20, 40)

configs = [make_config(topo, lat, "traversal", nodes=64, gap=12)
           for lat in LATENCIES for topo in ("baseline", "alternate")]
results = sweep(configs)

print(report(results, "table"))

print("improvement of alternate (with prefetcher) over baseline:")
by_key = {(r.config.topology, r.config.latency): r.cycles for r in results}
for lat in LATENCIES:
    base = by_key[("baseline", lat)]
    alt = by_key[("alternate", lat)]
    pct = (base - alt) / base * 100
    bar = "#" * int(pct)
    print(f"  latency {lat:3d}: {pct:6.2f}%  {bar}")
