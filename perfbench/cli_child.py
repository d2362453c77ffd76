"""Run one ``beliefmkt`` CLI invocation and record what it cost.

    python3 perfbench/cli_child.py --stats FILE [--trace] -- <cli arguments>

Equivalent to ``python -m beliefmkt.cli <cli arguments>``, plus a JSON
stats file holding the exit code, the time to import ``beliefmkt.cli``, the
process's peak resident memory, its host-speed probes (see
``hostspeed``; not run with ``--trace``) and, with ``--trace``, its spans
and counters.  The exit code is the CLI's.
"""

import json
import sys
import time

import hostspeed
from run import peak_rss_kb


def main(argv):
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    stats_path = own[own.index("--stats") + 1]
    traced = "--trace" in own
    sampler = hostspeed.Sampler()
    if not traced:
        sampler.start()

    start = time.perf_counter()
    from beliefmkt import cli
    import_s = time.perf_counter() - start

    tracer = None
    if traced:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    try:
        code = cli.main(cli_args)
    finally:
        sampler.stop()
    stats = {"exit_code": code, "import_s": import_s,
             "peak_rss_kb": peak_rss_kb(), "speed": sampler.reading()}
    if tracer is not None:
        stats["spans"] = tracer.spans
        stats["counters"] = dict(tracer.counters)
    with open(stats_path, "w") as fp:
        json.dump(stats, fp)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
