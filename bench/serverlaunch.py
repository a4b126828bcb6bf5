"""Start ``repro serve`` with the layer wrappers installed.

    python3 bench/serverlaunch.py --trace-out FILE serve --pool ... --port 0

Installs :mod:`tracer`'s wrappers, hands the remaining arguments to the
``repro`` CLI entry, and writes the spans once the server has drained.
"""

from __future__ import annotations

import sys

import tracer as tracermod


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out":
        print("usage: serverlaunch.py --trace-out FILE serve [ARGS...]", file=sys.stderr)
        return 2
    out, cli_args = argv[1], argv[2:]
    tr = tracermod.Tracer()
    tracermod.install(tr)
    from repro.cli import main as repro_main

    code = repro_main(cli_args)
    tr.dump(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
