"""The cspcover CLI with spans: the traced run starts this instead of
`python -m cspcover.cli`, with the same arguments and PYTHONPATH=src.

The job id, the parent span id and the file the spans go to come in the
environment variables PERFBENCH_TRACE, PERFBENCH_PARENT and PERFBENCH_SPANS.
The import of the package is timed first, as span `cli.import`, before
anything else is imported.
"""

import time

start = time.monotonic()
import cspcover.cli  # noqa: E402  (timed: every CLI call pays this)

imported = time.monotonic()

import os  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402


def main():
    env = os.environ
    tracer = tracing.Tracer(
        "c%d" % os.getpid(), env["PERFBENCH_TRACE"], env["PERFBENCH_PARENT"]
    )
    tracer.record("cli.import", start, imported)
    tracing.load(tracer)
    try:
        return cspcover.cli.main(sys.argv[1:])
    finally:
        tracer.dump(env["PERFBENCH_SPANS"])


if __name__ == "__main__":
    sys.exit(main())
