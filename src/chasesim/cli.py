"""Command-line experiment runner.

    chasesim run --topology alternate --latency 5 --workload traversal ...
    chasesim sweep --latencies 2,5,10,20,40 --workloads traversal,array ...

Exit code 0 on success, 1 when a run deadlocks, 2 on bad input (one
``chasesim: error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .harness import TOPOLOGIES, make_config, report, run_experiment, sweep
from .kernel import MAX_CYCLES, ConfigurationError
from .workloads import WORKLOADS


def _add_workload_opts(p):
    # workload sizes default to None: unset ones take the WORKLOADS defaults
    p.add_argument("--nodes", type=int, help="list length")
    p.add_argument("--nodes-per-line", type=int, help="list nodes per cache line")
    p.add_argument("--gap", type=int, help="compute cycles between memory tokens")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--disks", type=int, help="hanoi disks")
    p.add_argument("--buckets", type=int, help="hashtable buckets")
    p.add_argument("--keys", type=int, help="hashtable keys")
    p.add_argument("--inserts", type=int, help="insertion count")
    p.add_argument("--elements", type=int, help="array elements")
    p.add_argument("--max-cycles", type=int, default=MAX_CYCLES)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (a flag that is not an integer, say) as
    ``ConfigurationError``, so they print as one error line too."""

    def error(self, message):
        raise ConfigurationError(message)


def _workload_params(args, name):
    """The given flags that the named workload takes as parameters."""
    defaults = WORKLOADS[name][1] if name in WORKLOADS else {}
    return {k: v for k, v in vars(args).items() if k in defaults and v is not None}


def main(argv=None) -> int:
    parser = _Parser(prog="chasesim", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("--topology", default="alternate")
    p_run.add_argument("--latency", type=int, default=5)
    p_run.add_argument("--workload", required=True)
    p_run.add_argument("--trace", metavar="FILE", default=None,
                       help="write a per-cycle trace")
    _add_workload_opts(p_run)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep")
    p_sweep.add_argument("--latencies", default="2,5,10,20,40")
    p_sweep.add_argument("--workloads", required=True,
                         help="comma-separated workload names")
    p_sweep.add_argument("--topologies", default=",".join(TOPOLOGIES))
    _add_workload_opts(p_sweep)

    try:
        args = parser.parse_args(argv)
        if args.cmd == "run":
            cfg = make_config(args.topology, args.latency, args.workload,
                              seed=args.seed, max_cycles=args.max_cycles,
                              **_workload_params(args, args.workload))
            # opened only now, so bad input leaves an existing file alone
            try:
                out = open(args.trace, "w") if args.trace else contextlib.nullcontext()
            except OSError as e:
                raise ConfigurationError(
                    f"cannot open --trace {args.trace!r}: {e.strerror}") from None
            with out as trace:
                stats = run_experiment(cfg, trace=trace)
            sys.stdout.write(report([stats], args.format))
            if not stats.completed:
                sys.stderr.write("deadlock: " + str(stats.deadlock_states) + "\n")
                return 1
            return 0

        try:
            latencies = [int(x) for x in args.latencies.split(",") if x]
        except ValueError:
            raise ConfigurationError(
                f"--latencies must be comma-separated integers, not "
                f"{args.latencies!r}") from None
        names = [x.strip() for x in args.workloads.split(",") if x.strip()]
        topologies = [x.strip() for x in args.topologies.split(",") if x.strip()]
        for flag, items in (("--latencies", latencies), ("--workloads", names),
                            ("--topologies", topologies)):
            if not items:
                raise ConfigurationError(f"{flag} must name at least one value")
        configs = [
            make_config(topo, lat, name, seed=args.seed, max_cycles=args.max_cycles,
                        **_workload_params(args, name))
            for name in names for lat in latencies for topo in topologies
        ]
        results = sweep(configs)
        sys.stdout.write(report(results, args.format))
        return 0 if all(r.completed for r in results) else 1
    except ConfigurationError as e:
        sys.stderr.write(f"chasesim: error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
