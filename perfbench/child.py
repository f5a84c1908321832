"""One cold cartier invocation, run by perfbench/run.py in a fresh process.

    child.py FD MODE [cartier arguments ...]

The child imports `cartier.cli`, builds its argument parser and writes one
byte to the file descriptor FD: the parent takes the time that byte
arrives as the end of set-up.  MODE is `setup` (stop there), `run` (call
`cartier.cli.main` on the arguments) or `trace:RUN_ID` (the same, with
layer spans recorded; their summary is written as JSON to FD at exit).
"""

import json
import os
import sys
import time


def main():
    fd, mode, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    from cartier import cli

    cli.build_parser()
    os.write(fd, b"R")
    if mode == "setup":
        return 0
    if mode == "run":
        return cli.main(argv)
    from spans import Tracer

    tracer = Tracer(mode.partition(":")[2])
    tracer.install()
    start = time.perf_counter()
    code = cli.main(argv)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    with os.fdopen(fd, "wb") as side:
        side.write(json.dumps(tracer.summary(main_s)).encode())
    return code


if __name__ == "__main__":
    sys.exit(main())
