"""Per-layer times of one ``vaknh`` command, traced from outside the package.

    python3 tools/trace.py scan martinet --samples 1000 --p-mode legendre

Runs ``vaknh.cli.run`` on the given arguments once, in this process, under
the span tracer of the benchmark (``bench/spans.py``), and discards what the
command writes to stdout.  Prints the command's exit code and wall time,
then one row per traced function that ran: its calls, its total time and
its self time (the total less the time of the traced functions it called),
the largest total first.  The package is not changed: the tracer wraps the
functions of ``bench/spans.TARGETS`` while the command runs.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "bench", ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))


def main(argv=None) -> int:
    from spans import Tracer
    from vaknh import cli

    argv = sys.argv[1:] if argv is None else list(argv)
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = cli.run(argv)
        wall = time.perf_counter() - start
    table = tracer.table()
    names = sorted((name for name in table.names if table.calls(name)),
                   key=table.total, reverse=True)
    print(f"vaknh {' '.join(argv)}: exit {code}, {wall * 1e3:.3f} ms")
    print(f"{'span':36s} {'calls':>7s} {'total ms':>10s} {'self ms':>10s}")
    for name in names:
        print(f"{name:36s} {table.calls(name):7d} {table.total(name) * 1e3:10.3f} "
              f"{table.self_total(name) * 1e3:10.3f}")
    return code


if __name__ == "__main__":
    sys.exit(main())
