"""Traced daemon launcher: ``repro serve`` with the span wrappers in.

    python serve_traced.py --spans-out FILE -- serve --scheme lyra ...

Installs the same wrappers the simulator workloads use, then hands the
remaining arguments to ``repro.cli.main`` — the daemon is the
unmodified program.  Spans stay in memory; the summary is written once
when the daemon stops (SIGTERM/SIGINT make ``repro serve`` return) and
on SIGUSR1, which lets the benchmark collect it from a daemon it is
about to SIGKILL.  The untraced run does not use this file: it runs
``python -m repro serve`` directly.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("cli", nargs=argparse.REMAINDER,
                        help="-- followed by the repro CLI arguments")
    args = parser.parse_args(argv)
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import e2e_spans
    from repro import cli

    installed = e2e_spans.install()

    def dump(*_signal_args) -> None:
        summary = e2e_spans.summarise(installed.recorder)
        summary["missing_targets"] = installed.missing
        tmp = args.spans_out + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(summary, fh)
        os.replace(tmp, args.spans_out)

    signal.signal(signal.SIGUSR1, dump)
    try:
        return cli.main(cli_args)
    finally:
        dump()
        installed.restore()


if __name__ == "__main__":
    sys.exit(main())
