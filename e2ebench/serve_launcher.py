"""Traced sign-off server: ``python -m repro.experiments serve`` plus spans.

Run by the benchmark in place of the plain CLI when tracing::

    python e2ebench/serve_launcher.py --spans FILE [CLI arguments...]

It installs the layer wrappers of :mod:`tracing`, then hands the remaining
arguments to the CLI's own ``main`` — the same code path as the untraced
server — and writes the spans out when the server has drained.
"""

import sys
import time

T0 = time.monotonic()

import tracing  # noqa: E402


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[1] != "--spans":
        print("usage: serve_launcher.py --spans FILE [CLI args]",
              file=sys.stderr)
        return 2
    path, cli_args = sys.argv[2], sys.argv[3:]
    recorder = tracing.Recorder()
    setup = recorder.begin("phase.setup")
    recorder.spans[setup][2] = T0
    with recorder.span("setup.import"):
        from repro.experiments.__main__ import main as cli_main
    tracing.install(recorder)
    recorder.end(setup)
    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(path)


if __name__ == "__main__":
    raise SystemExit(main())
