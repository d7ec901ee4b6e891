"""Launch the repo's ``serve`` command, optionally with layer tracing.

Usage: ``python3 perfbench/serve_child.py [--trace-out FILE] serve ARGS...``

The same launcher runs in both modes, so traced and untraced server
processes have the same shape.  With ``--trace-out`` the layer boundaries
are wrapped before the server starts, and on exit (SIGINT) the spans and
the codec cache counters are written to FILE.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402


def main(argv):
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    tracer = tracing.Tracer()
    if trace_out is not None:
        tracer.install()
    from repro.archive.cli import main as cli_main
    from repro.coding.pipeline import resource_cache_info

    try:
        return cli_main(argv)
    finally:
        if trace_out is not None:
            tracer.dump(trace_out, resource_cache=resource_cache_info())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
