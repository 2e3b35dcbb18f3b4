"""Run ``sbcpmu.cli.main(argv)`` with the layer wrappers installed.

Usage: python perfbench/traced_cli.py SPANS_JSON CLI_ARG...

Times the import of ``sbcpmu.cli`` as its own span, installs the wrappers of
``spans.PATCH_POINTS``, runs the command and writes the spans to SPANS_JSON.
Exits with the command's exit code, as ``python -m sbcpmu.cli`` would.
"""

import sys

from spans import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    index = tracer.begin("proc.import")
    import sbcpmu.cli

    tracer.end(index)
    tracer.install()
    code = sbcpmu.cli.main(argv)
    tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
