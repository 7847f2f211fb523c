"""Command-line experiment runner.

    chasesim run --topology alternate --latency 5 --workload traversal ...
    chasesim sweep --latencies 2,5,10,20,40 --workloads traversal,array ...

Both commands make their configs, run them, write the report and print one
stderr line per run that reached ``max_cycles`` unfinished. Exit code 0 when
every run finished, 1 when one did not, 2 on bad input (one
``chasesim: error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from .harness import TOPOLOGIES, make_config, report, run_experiment, sweep
from .kernel import ConfigurationError
from .workloads import PARAMS, WORKLOADS


def _add_workload_opts(p):
    # one flag per parameter, defaulting to None: unset ones take the
    # defaults of the WORKLOADS entry, which the help text names
    for param in PARAMS:
        takers = ", ".join(f"{name} {ranges[param][0]}"
                           for name, (_, ranges, _) in WORKLOADS.items() if param in ranges)
        p.add_argument("--" + param.replace("_", "-"), type=int,
                       help=f"default: {takers}")
    # None: the library's defaults apply
    p.add_argument("--seed", type=int)
    p.add_argument("--max-cycles", type=int)
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")


class _Parser(argparse.ArgumentParser):
    """Raises argparse's own errors (a flag that is not an integer, say) as
    ``ConfigurationError``, so they print as one error line too."""

    def error(self, message):
        raise ConfigurationError(message)


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
            names, latencies, topologies = [args.workload], [args.latency], [args.topology]
        else:
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
        # the flags given: a config keeps the workload parameters its workload takes
        given = {k: v for k, v in vars(args).items()
                 if (k in PARAMS or k in ("seed", "max_cycles")) and v is not None}
        configs = [make_config(topo, lat, name, **given)
                   for name in names for lat in latencies for topo in topologies]
        if args.cmd == "sweep":
            results = sweep(configs)
        else:
            # opened only now, so bad input leaves an existing file alone
            try:
                out = open(args.trace, "w") if args.trace else contextlib.nullcontext()
            except OSError as e:
                raise ConfigurationError(
                    f"cannot open --trace {args.trace!r}: {e.strerror}") from None
            with out as trace:
                results = [run_experiment(configs[0], trace=trace)]
        sys.stdout.write(report(results, args.format))
        unfinished = [r for r in results if not r.completed]
        for r in unfinished:
            c = r.config
            sys.stderr.write(f"unfinished: {c.workload} {c.topology} latency {c.latency} "
                             f"reached max_cycles {c.max_cycles}; states {r.deadlock_states}\n")
        return 1 if unfinished else 0
    except ConfigurationError as e:
        sys.stderr.write(f"chasesim: error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
