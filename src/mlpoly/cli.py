"""Command-line front end: tables, evaluation, zeros, quadrature, transforms,
verification suites, and the erratum audit, as deterministic JSON or CSV."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import __version__
from .polyfps import Poly, elementary
from .report import CheckReport
from .sequences import RECURRENCES, SeqKind, generate, generating_series

# The float layers (analysis, and suite, which runs it) load numpy, so each handler that
# needs them imports them itself: coeffs, eval and series never pay for numpy.  csv and
# decimal are imported where they are used too: a default verify writes JSON and reads no
# exact point.

_SEQ_TOKENS = tuple(sorted(kind.token for kind in SeqKind))
_SERIES_TOKENS = _SEQ_TOKENS[:4] + ("arctan-half", "artanh", "tan-half", "log-ratio")

# Largest sizes served, so that a mistyped size is refused at once instead of running
# for hours (zeros bisects about n lanes at a time, after a dense SVD of size n/2 that
# grows as n^3, and counts 2n lanes once to prove the interlacing; the exact suite grows
# as n^4).  At the ceiling, process start included, on a 2-core x86-64 machine with
# AVX-512: zeros --n 2000 takes 0.30 s (0.35-0.36 s with one BLAS thread) and counts
# 12 times: 2000 lanes 6 times, the 21 its tight bracket misses 5 times, 4000 once
# (zeros --n 400 counts 5 times); coeffs --seq pidduck --max-n 500 takes 2.1 s and
# prints 100 MB (most of it converting the coefficients to strings), and eval --n 500
# 0.04 s (0.20 s at a point on the EVAL_DIGITS bound); series --order 500 takes
# 4.6-5.0 s for phi-monic, phi and g, the slowest kinds; verify --suite exact --max-n 240
# takes 5.4 s and peaks at 44 MB, where the convolution and lowering checks follow from
# the derivative expansion (numeric and all refuse from 103 at once).
# quad and ft refuse every size from 103 and from 121, in 0.10 s at
# their ceilings, where quad --max-n 1000 took 3.1 s to get there and ft --n 3000000
# ran past 30 s inside math.factorial; the ceilings leave the refusal messages of
# sizes up to 150 and 170 as they were.
ZEROS_CEILING = 2000
TABLE_CEILING = 500
SERIES_CEILING = 500
VERIFY_CEILING = 240
QUAD_CEILING = 200
FT_CEILING = 200
EVAL_DIGITS = 100_000

# The exit code when the reader closes stdout before the output ends (`mlpoly ... | head`):
# what a shell reports for a process that SIGPIPE ended, 128 + 13, outside the 0/1/2 of a
# finished command, since the output is cut short.
CLOSED_STDOUT = 141


def _fmt(v: float) -> str:
    return format(v, ".17g")


def _float_json(v: float) -> str:
    """v as json writes it; strict JSON, so a non-finite v raises json's own ValueError."""
    if not math.isfinite(v):
        raise ValueError(f"Out of range float values are not JSON compliant: {v!r}")
    return float.__repr__(v)


class _Symmetric(list):
    """The rows of a symmetric matrix of floats, a list of lists that json writes as any
    other; _dumps writes each mirrored pair of entries from one repr."""


class _Plain(list):
    """The strings of Poly.to_strings, made of -, digits and / alone, which json writes
    unchanged inside quotes: _dumps writes them with one join and no escaper."""


def _symmetric_texts(rows: list[list[float]], fmt) -> list[list[str]]:
    """fmt of each entry of a symmetric matrix given by its rows, each mirrored pair formatted
    once, from the lower triangle."""
    lower = [list(map(fmt, row[: i + 1])) for i, row in enumerate(rows)]
    return [low + [below[i] for below in lower[i + 1:]] for i, low in enumerate(lower)]


def _dumps(obj, pad: str = "") -> str:
    """The text json.dumps writes for a JSON value with string keys at an indent of 2,
    keys sorted and strict (allow_nan off), with its lines after the first indented by
    pad.  json takes its C encoder only without an indent, so this walks containers
    itself and hands each list of strings or of floats to one C-level join of the escaper
    and the float repr json uses, and each _Plain list to one join with no escaper."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        return _float_json(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if type(obj) is _Symmetric:
            return _symmetric_json(obj, pad)
        if type(obj) is _Plain:
            return f'[\n{inner}"' + f'",\n{inner}"'.join(obj) + f'"\n{pad}]'
        sep = ",\n" + inner
        body = None
        try:  # each map raises TypeError at the first value of another type
            if isinstance(obj[0], str):
                body = sep.join(map(encode_basestring_ascii, obj))
            elif isinstance(obj[0], float):
                body = sep.join(map(float.__repr__, obj))
                if not math.isfinite(sum(obj)):  # also when finite values overflow
                    for v in obj:
                        _float_json(v)
        except TypeError:
            pass
        if body is None:
            body = sep.join([_dumps(v, inner) for v in obj])
        return f"[\n{inner}{body}\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        body = f",\n{inner}".join([f"{encode_basestring_ascii(k)}: {_dumps(v, inner)}"
                                   for k, v in sorted(obj.items())])
        return f"{{\n{inner}{body}\n{pad}}}"
    return json.dumps(obj)  # bool, None, an int subclass; anything else raises json's error


def _symmetric_json(rows: _Symmetric, pad: str) -> str:
    """_dumps of a symmetric matrix, each mirrored pair of entries written from one repr."""
    for row in rows:  # strict JSON, one row at a time as for any list of floats
        if not math.isfinite(sum(row)):
            for v in row:
                _float_json(v)
    inner = pad + "  "
    sep, row_sep = ",\n" + inner, ",\n" + inner + "  "
    body = sep.join([f"[\n{inner}  {row_sep.join(texts)}\n{inner}]"
                     for texts in _symmetric_texts(rows, float.__repr__)])
    return f"[\n{inner}{body}\n{pad}]"


def _emit_json(payload) -> None:
    """payload as indented JSON.  An iterator is written as a list one element at a time,
    in the same bytes, so that only one element's strings are alive at once; it is used
    for rows of exact strings, which cannot fail half way through."""
    # strict JSON: a non-finite float raises ValueError, which main turns into exit 2
    if not isinstance(payload, Iterator):
        print(_dumps(payload))
        return
    sep = "[\n  "
    for item in payload:
        sys.stdout.write(sep + _dumps(item, "  "))
        sep = ",\n  "
    sys.stdout.write("[]\n" if sep == "[\n  " else "\n]\n")


def _emit_csv(header: list[str], rows: Iterable[list]) -> None:
    """The header, then each row as it comes: a generator of rows is never held whole."""
    import csv
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _emit_records(payload: dict | list[dict], fmt: str) -> None:
    """One record or a list of them: as JSON, or as CSV with the keys as header."""
    rows = payload if isinstance(payload, list) else [payload]
    if fmt == "json":
        _emit_json(payload)
    else:
        _emit_csv(list(rows[0]), [[_fmt(v) if isinstance(v, float) else v for v in r.values()]
                                  for r in rows])


def _emit_coeff_csv(ids: list[str], rows: list[tuple[list, Poly]]) -> None:
    """(id values, polynomial) rows as CSV: the id columns, then c0, c1, ... padded to the
    largest coefficient count, which the polynomials know before any row becomes strings."""
    width = max((p.degree + 1 for _, p in rows), default=0)
    _emit_csv(ids + [f"c{k}" for k in range(width)],
              (key + p.to_strings() + [""] * (width - 1 - p.degree) for key, p in rows))


def _run_report(argv: list[str], reports: list[CheckReport], fmt: str) -> int:
    from .suite import summarize
    summary = summarize(reports)
    if fmt == "csv":
        rows = [[r.identity, r.n_range[0], r.n_range[1], r.status.value,
                 "" if r.max_deviation is None else _fmt(r.max_deviation), r.note]
                for r in reports]
        rows.append(["summary", summary["pass"], summary["fail"], summary["audited"], "", ""])
        _emit_csv(["identity", "n_lo", "n_hi", "status", "max_deviation", "note"], rows)
    else:
        _emit_json({
            "tool": "mlpoly",
            "version": __version__,
            "command": " ".join(argv),
            "reports": [r.to_json_dict() for r in reports],
            "summary": summary,
        })
    return 0 if summary["fail"] == 0 else 1


def _cmd_coeffs(args, argv) -> int:
    kind = SeqKind.from_token(args.seq)
    if (args.n is None) == (args.max_n is None):
        raise _Usage("coeffs needs exactly one of --n or --max-n")
    n_max = args.n if args.n is not None else args.max_n
    table = generate(kind, n_max)
    ns = [n_max] if args.n is not None else range(n_max + 1)
    if args.format == "csv":
        _emit_coeff_csv(["kind", "n"], [([kind.value, n], table[n]) for n in ns])
        return 0
    rows = ({"kind": kind.value, "n": n, "coeffs": _Plain(table[n].to_strings())} for n in ns)
    _emit_json(next(rows) if args.n is not None else rows)  # --n prints one object
    return 0


# The forms Fraction reads: [sign] integer, [sign] p/q, or a decimal with an exponent;
# compiled at the first eval, by re's own cache
_POINT = (r"\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<num>(?:\d+(?:_\d+)*)?)"
          r"(?:/(?P<den>\d+(?:_\d+)*)|(?:\.(?:\d+(?:_\d+)*)?)?"
          r"(?:e(?P<exp>[-+]?\d+(?:_\d+)*))?)\s*")


def _point(text: str, n: int) -> Fraction:
    """The --x of eval as an exact rational, refused at once when the value of member n
    there could pass EVAL_DIGITS digits: when H^max(n, 1) > 10^EVAL_DIGITS for the larger
    H of the point's numerator and denominator.  An exponent past EVAL_DIGITS is refused
    before the point is built, since 1e<exponent> alone would take that many digits.
    The digits are read through Decimal, which has no limit on their number, where
    Fraction(text) stops at CPython's 4300; the process-wide limit is left as it is."""
    from decimal import Decimal
    form = re.fullmatch(_POINT, text, re.IGNORECASE)
    if form is None:
        raise ValueError(f"Invalid literal for Fraction: {text!r}")
    exponent = form["exp"]
    if exponent is not None and abs(int(Decimal(exponent))) > EVAL_DIGITS:
        raise ValueError(f"--x exponent {exponent} is past the bound of {EVAL_DIGITS} digits")
    if form["den"] is None:
        x = Fraction(Decimal(text))
    else:
        den = int(Decimal(form["den"]))
        if not den:
            raise ValueError(f"--x={text} has a zero denominator")
        x = Fraction(int(Decimal(form["sign"] + form["num"])), den)
    if max(n, 1) * math.log10(max(abs(x.numerator), x.denominator)) > EVAL_DIGITS:
        raise ValueError(f"member {n} at --x={text} would pass the bound of "
                         f"{EVAL_DIGITS} digits")
    return x


def _exact_str(q: Fraction) -> str:
    """str(q), also where a numerator or denominator is past CPython's limit on integer
    string conversion (4300 digits by default), which Decimal does not apply; the
    process-wide limit is left as it is."""
    from decimal import Decimal
    num, den = str(Decimal(q.numerator)), str(Decimal(q.denominator))
    return num if den == "1" else f"{num}/{den}"


def _cmd_eval(args, argv) -> int:
    kind = SeqKind.from_token(args.seq)
    x = _point(args.x, args.n)
    value = RECURRENCES[kind].value(args.n, x)
    try:
        approx = float(value)
    except OverflowError:  # past the float range: the exact value string stands alone
        approx = None
    _emit_records({"kind": kind.value, "n": args.n, "x": _exact_str(x),
                   "value": _exact_str(value), "float": approx}, args.format)
    return 0


def _cmd_zeros(args, argv) -> int:
    from .analysis import zeros
    zs = zeros(args.n, args.tol)
    if args.format == "csv":
        _emit_csv(["index", "zero"], [[k, _fmt(z)] for k, z in enumerate(zs)])
    else:
        _emit_json({"n": args.n, "tol": args.tol, "zeros": zs})
    return 0


def _cmd_quad(args, argv) -> int:
    from .analysis import gram_deviation, orthogonality_matrix
    mat = orthogonality_matrix(args.max_n)
    dev = gram_deviation(mat)
    # _gram mirrors its lower triangle, so the matrix is symmetric to the bit
    if args.format == "csv":
        _emit_csv([f"c{j}" for j in range(args.max_n + 1)],
                  _symmetric_texts(mat.tolist(), _fmt))
    else:
        _emit_json({"size": args.max_n + 1, "matrix": _Symmetric(mat.tolist()),
                    "max_abs_deviation": dev,
                    "target": "2/(n+1) on the diagonal, 0 elsewhere"})
    return 0


def _cmd_ft(args, argv) -> int:
    from .analysis import ft_closed, ft_numeric
    closed = ft_closed(args.n, args.s)
    numeric = ft_numeric(args.n, args.s)
    _emit_records({"n": args.n, "s": args.s, "phase": f"i^{args.n}",
                   "closed": closed, "numeric": numeric,
                   "abs_deviation": abs(closed - numeric)}, args.format)
    return 0


def _cmd_moments(args, argv) -> int:
    from .analysis import moment
    if args.max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {args.max_n}")
    rows = []
    for n in range(1, args.max_n + 1, 2):
        m = moment(n)
        rows.append({"n": n, "closed": f"{m.closed}*pi^{n + 1}", "closed_float": m.closed_float,
                     "numeric": m.numeric, "rel_deviation": m.deviation})
    _emit_records(rows, args.format)
    return 0


def _cmd_verify(args, argv) -> int:
    from .suite import run_suite
    reports = run_suite(args.suite, args.max_n)
    return _run_report(argv, reports, args.format)


def _cmd_audit(args, argv) -> int:
    from .suite import audit_suite
    return _run_report(argv, audit_suite(), args.format)


def _cmd_series(args, argv) -> int:
    kind = args.kind
    if args.order < 1:
        raise ValueError("series order must be at least 1")
    if kind == "g-monic":
        coeffs = generate(SeqKind.G_MONIC, args.order - 1)
    elif kind in _SEQ_TOKENS:
        coeffs = generating_series(SeqKind.from_token(kind), args.order)
    else:
        coeffs = elementary(kind.replace("-", "_"), args.order)
    if args.format == "csv":
        _emit_coeff_csv(["t_power"], [([n], p) for n, p in enumerate(coeffs)])
    else:
        _emit_json({"t_power": n, "coeffs": _Plain(p.to_strings())}
                   for n, p in enumerate(coeffs))
    return 0


class _Usage(Exception):
    pass


class _AboveCeiling(Exception):
    """A size past its ceiling.  Not a ValueError, so argparse lets it through to main,
    which reports it in one line like every other invalid value."""


class _Parser(argparse.ArgumentParser):
    """Refuses as main does: argparse's usage, then one `mlpoly: error: <message>` line,
    exit 2.  add_subparsers builds each command's parser of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"mlpoly: error: {message}\n")


def _size_up_to(ceiling: int):
    """argparse type: an integer size no larger than ceiling."""
    def size(text: str) -> int:
        n = int(text)
        if n > ceiling:
            raise _AboveCeiling(f"size {n} is above the ceiling of {ceiling}")
        return n
    return size


@functools.cache  # one parser per process: parse_args returns a fresh namespace each call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mlpoly",
        description="Exact generation and verification toolkit for the "
                    "Mittag-Leffler polynomial family")
    parser.add_argument("--version", action="version", version=f"mlpoly {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p, handler):  # every command ends with --format and names its handler
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.set_defaults(handler=handler)

    p = sub.add_parser("coeffs", help="emit exact coefficient tables")
    p.add_argument("--seq", required=True, choices=_SEQ_TOKENS)
    p.add_argument("--n", type=_size_up_to(TABLE_CEILING))
    p.add_argument("--max-n", dest="max_n", type=_size_up_to(TABLE_CEILING))
    finish(p, _cmd_coeffs)

    p = sub.add_parser("eval", help="evaluate one member exactly at a rational point")
    p.add_argument("--seq", required=True, choices=_SEQ_TOKENS)
    p.add_argument("--n", type=_size_up_to(TABLE_CEILING), required=True)
    p.add_argument("--x", required=True, help="rational like 3/4, 2, or 0.25")
    finish(p, _cmd_eval)

    p = sub.add_parser("zeros", help="zeros of the monic reduced member")
    p.add_argument("--n", type=_size_up_to(ZEROS_CEILING), required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    finish(p, _cmd_zeros)

    p = sub.add_parser("quad", help="orthogonality Gram matrix by quadrature")
    p.add_argument("--max-n", dest="max_n", type=_size_up_to(QUAD_CEILING), default=12)
    finish(p, _cmd_quad)

    p = sub.add_parser("ft", help="Fourier transform: closed form vs quadrature")
    p.add_argument("--n", type=_size_up_to(FT_CEILING), required=True)
    p.add_argument("--s", type=float, required=True)
    finish(p, _cmd_ft)

    p = sub.add_parser("moments", help="odd sinh moments: exact zeta form vs quadrature")
    p.add_argument("--max-n", dest="max_n", type=int, default=9,
                   help="largest moment index, at least 1 (default: 9)")
    finish(p, _cmd_moments)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("exact", "numeric", "all"), default="all")
    p.add_argument("--max-n", dest="max_n", type=_size_up_to(VERIFY_CEILING), default=None,
                   help="largest index checked, at least 1 "
                        "(default: 20 for exact, 12 for numeric)")
    finish(p, _cmd_verify)

    p = sub.add_parser("audit", help="adjudicate the printed-identity errata")
    finish(p, _cmd_audit)

    p = sub.add_parser("series", help="generating-function coefficient tables")
    p.add_argument("--kind", required=True, choices=_SERIES_TOKENS)
    p.add_argument("--order", type=_size_up_to(SERIES_CEILING), default=8)
    finish(p, _cmd_series)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; returns 0 when no report is FAIL, 1 when one is, 2 for a refusal or
    a defect, and CLOSED_STDOUT when the reader closed stdout before the output ended."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _AboveCeiling as exc:
        print(f"mlpoly: error: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.handler(args, argv)
        sys.stdout.flush()  # a reader that closed early is seen here, not at shutdown
        return code
    except BrokenPipeError:
        # what is still buffered goes to devnull, so the flush at shutdown stays silent
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return CLOSED_STDOUT
    except _Usage as exc:
        parser.print_usage(sys.stderr)
        print(f"mlpoly: error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"mlpoly: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a defect: named in one line, never a traceback
        message = " ".join(str(exc).splitlines())
        print(f"mlpoly: error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 2
