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


# every workload parameter of the registry, in first-declared order
PARAMS = dict.fromkeys(k for _, ranges, _ in WORKLOADS.values() for k in ranges)


def _add_workload_opts(p):
    # one flag per parameter, defaulting to None: unset ones take the
    # defaults of the WORKLOADS entry, which the help text names
    for param in PARAMS:
        takers = ", ".join(f"{name} {ranges[param][0]}"
                           for name, (_, ranges, _) in WORKLOADS.items() if param in ranges)
        p.add_argument("--" + param.replace("_", "-"), type=int,
                       help=f"default: {takers}")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--max-cycles", type=int, default=MAX_CYCLES)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (a flag that is not an integer, say) as
    ``ConfigurationError``, so they print as one error line too."""

    def error(self, message):
        raise ConfigurationError(message)


def _workload_params(args):
    """The workload parameters given as flags; a config keeps the ones its
    workload takes."""
    return {k: v for k, v in vars(args).items() if k in PARAMS and v is not None}


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
                              **_workload_params(args))
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
        params = _workload_params(args)
        configs = [make_config(topo, lat, name, seed=args.seed,
                               max_cycles=args.max_cycles, **params)
                   for name in names for lat in latencies for topo in topologies]
        results = sweep(configs)
        sys.stdout.write(report(results, args.format))
        return 0 if all(r.completed for r in results) else 1
    except ConfigurationError as e:
        sys.stderr.write(f"chasesim: error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
