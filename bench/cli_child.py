"""Traced CLI process for the `cli` workload's traced run.

    python3 -X importtime bench/cli_child.py SPANS_PATH <ncdbr.cli arguments>

Installs the span tracer, runs `ncdbr.cli.main` on the arguments, writes the
spans to SPANS_PATH and exits with the CLI's exit code.
"""

import sys

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import ncdbr.cli

    try:
        return ncdbr.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
