"""One gkrevival CLI invocation with layer tracing installed.

    python3 benchmarks/cli_shim.py PREFIX ARGS...

Runs ``gkrevival.cli.main(ARGS)`` and writes PREFIX.spans and PREFIX.json
(see tracer.Tracer.dump); exits with the CLI's exit code.
"""

import sys

import gkrevival.cli

from tracer import Tracer


def main(argv):
    prefix, args = argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return gkrevival.cli.main(args)
    finally:
        tracer.dump(prefix)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
