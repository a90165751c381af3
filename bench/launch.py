"""Start `spraylink` the way its console script does, optionally traced.

    python3 bench/launch.py [--spans OUT.npz --op N] <spraylink arguments>

Untraced, this is `sys.exit(spraylink.cli.main(argv))`, the body of the
installed entry point. With --spans, the public functions are wrapped as in
the parent benchmark process, the call is recorded as op N, and the spans
are written to OUT.npz when the command returns.
"""

import sys


def main(argv):
    spans_path, op = None, -1
    if argv[:1] == ["--spans"]:
        spans_path, op, argv = argv[1], int(argv[3]), argv[4:]
    from spraylink import cli

    if spans_path is None:
        return cli.main(argv)
    import spans

    rec = spans.Recorder()
    rec.install()
    rec.op = op
    try:
        return cli.main(argv)
    finally:
        rec.op = -1
        rec.save(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
