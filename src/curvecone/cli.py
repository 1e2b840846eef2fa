"""Batch command-line interface: complex export, distances, verification.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Only errors raised while reading, parsing and validating the inputs map
to exit 2, each printed as one line that names the option or file at
fault; an exception from the computation itself is an internal fault
and propagates with its traceback.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager

from .metric import distance, point_from_dict
from .quotient import (
    build_complex,
    complex_from_json,
    complex_to_dot,
    complex_to_json,
)
from .surfaces import Surface, read_payload
from .verify import (
    check_mesh,
    check_samples,
    check_seed,
    run_verification,
)


class InputError(Exception):
    """A command's input could not be read, parsed or validated."""


@contextmanager
def _reading_input(what: str):
    # Every input error the library raises is a ValueError (the typed
    # ones subclass it), a KeyError (unknown orbit id) or an OSError.
    # ``what`` names the input in the message; the library's errors do not.
    try:
        yield
    except (ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)
        raise InputError(f"{what}: {message}") from exc


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise :class:`InputError`, so that they
    print as every other input error does, without the usage text.  Its
    subparsers are of this class too."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvecone",
        description="Curve-system quotient complexes and their cone metric.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_complex = sub.add_parser(
        "complex", help="enumerate the orbit complex of a surface"
    )
    p_complex.add_argument("-g", "--genus", type=int, required=True)
    p_complex.add_argument("-n", "--marked", type=int, required=True)
    p_complex.add_argument("--format", choices=("json", "dot"), default="json")
    p_complex.add_argument(
        "--out",
        help="write the serialized complex here ('-' for stdout; "
        "omitted: summary only)",
    )

    p_dist = sub.add_parser("dist", help="distance between two cone points")
    p_dist.add_argument("complex_file")
    p_dist.add_argument("point_p")
    p_dist.add_argument("point_q")
    p_dist.add_argument("--out", help="write the geodesic JSON here (default stdout)")

    p_verify = sub.add_parser("verify", help="run the property suites")
    p_verify.add_argument("-g", "--genus", type=int, required=True)
    p_verify.add_argument("-n", "--marked", type=int, required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=200)
    p_verify.add_argument(
        "--mesh",
        type=float,
        default=None,
        help="also run the grid oracle suite, on a grid of side 8 with this mesh",
    )
    p_verify.add_argument("--out", help="write the report JSON here (default stdout)")
    return parser


def _summary_lines(cx) -> list[str]:
    counts = cx.orbit_counts()
    return [f"dim {d}: {counts[d]} orbit{'' if counts[d] == 1 else 's'}" for d in sorted(counts)]


def _emit(text: str, out: str | None) -> None:
    """Write ``text`` to stdout (``out`` None or '-') or to the file
    ``out``, ending it with one newline if it has none."""
    text = text if text.endswith("\n") else text + "\n"
    if out in (None, "-"):
        sys.stdout.write(text)
        return
    with _reading_input(f"output file {out}"), open(out, "w") as handle:
        handle.write(text)


def _surface(args) -> Surface:
    with _reading_input("argument -g/-n"):
        return Surface(args.genus, args.marked)


def _cmd_complex(args) -> int:
    cx = build_complex(_surface(args))
    if args.out is not None:
        payload = complex_to_json(cx) if args.format == "json" else complex_to_dot(cx)
        _emit(payload, args.out)
    # The summary moves to stderr when the payload takes stdout.
    print("\n".join(_summary_lines(cx)), file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


def _read_input(kind: str, path: str, parse):
    """``parse`` of the bytes of the ``kind`` file at ``path``.  Every input
    error, from opening the file to validating its payload, names the
    file here and nowhere else: ``<kind> file <path>: <message>``."""
    with _reading_input(f"{kind} file {path}"):
        with open(path, "rb") as handle:
            data = handle.read()
        return parse(data)


def _cmd_dist(args) -> int:
    cx = _read_input("complex", args.complex_file, complex_from_json)
    p, q = (
        _read_input("point", path, lambda data: point_from_dict(cx, read_payload(data)))
        for path in (args.point_p, args.point_q)
    )
    result = distance(p, q)
    _emit(result.to_json(), args.out)
    return 0


def _cmd_verify(args) -> int:
    surface = _surface(args)
    # Every option is checked before the build, which can take minutes;
    # only the grid's node cap needs the complex's top orbits.
    for flag, check, value in (
        ("--seed", check_seed, args.seed),
        ("--samples", check_samples, args.samples),
        ("--mesh", check_mesh, args.mesh),
    ):
        with _reading_input(f"argument {flag}"):
            check(value)
    cx = build_complex(surface)
    with _reading_input("argument --mesh"):
        check_mesh(args.mesh, cx)
    report = run_verification(cx, seed=args.seed, samples=args.samples, mesh=args.mesh)
    _emit(report.to_json(), args.out)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    handlers = {"complex": _cmd_complex, "dist": _cmd_dist, "verify": _cmd_verify}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except SystemExit as exc:
        # Only -h exits the parser, with 0 once it has printed the help.
        return exc.code
    except InputError as exc:
        # One line, even for a path or an argument that holds a newline.
        print(f"curvecone: error: {exc}".replace("\n", "\\n"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
