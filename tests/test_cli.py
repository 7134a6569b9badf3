"""Command-line front end: payload shapes, exit codes, determinism.

Every command is exercised in process through main(argv); the double-run
determinism check compares captured output byte for byte.  The BLAS
thread-count check runs fresh processes, since numpy reads the count on import,
and so do the checks of the process entry, `python -m mlpoly`, which runs main
with the cycle collector off.
"""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpoly import __version__
from mlpoly import cli
from mlpoly.cli import (_SEQ_TOKENS, _SERIES_TOKENS, _Plain, _Symmetric, _build_parser,
                        _dumps, _emit_json, _emit_records, _symmetric_texts, main)
from mlpoly.polyfps import elementary
from mlpoly.sequences import RECURRENCES, SeqKind, generate, generating_series


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeffs_single_member(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--seq", "phi-monic", "--n", "4")
    assert code == 0
    assert json.loads(out) == {
        "kind": "PHI_MONIC", "n": 4, "coeffs": ["3/2", "0", "-5", "0", "1"]}


def test_coeffs_table(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--seq", "g", "--max-n", "2")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [0, 1, 2]
    assert rows[2]["coeffs"] == ["0", "0", "2"]


def test_coeffs_member_is_the_last_row_of_its_table(capsys):
    for seq in _SEQ_TOKENS:
        for n in (0, 23):
            _, member, _ = run_cli(capsys, "coeffs", "--seq", seq, "--n", str(n))
            _, table, _ = run_cli(capsys, "coeffs", "--seq", seq, "--max-n", str(n))
            assert json.loads(member) == json.loads(table)[-1], (seq, n)
            # the table is written row by row, in the bytes of one json.dumps of the list
            kind = SeqKind.from_token(seq)
            rows = [{"kind": kind.value, "n": k, "coeffs": p.to_strings()}
                    for k, p in enumerate(generate(kind, n))]
            assert table == json.dumps(rows, indent=2, sort_keys=True) + "\n", (seq, n)


def test_emit_json_writes_an_empty_iterator_as_an_empty_list(capsys):
    _emit_json(iter([]))
    assert capsys.readouterr().out == json.dumps([], indent=2) + "\n"


def _reference_json(obj):
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)


# JSON values with string keys, with the strings and numbers the escaper and the float
# repr treat apart: non-ASCII, control characters, quotes, backslashes, DEL and lone
# surrogates; signed zero, the float repr's switch to an exponent, the least subnormal,
# and integers past 2**63
_texts = st.text(st.one_of(st.characters(exclude_categories=()),
                           st.sampled_from('"\\\x7f\x00\x1f\n\ud800\udfffé\U0001f600')))
_finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 1e16, 9999999999999998.0, 5e-324, 1e-7]))
_scalars = st.one_of(_texts, _finite, st.integers(), st.sampled_from([2**63, -2**64, 10**40]),
                     st.booleans(), st.none())
_json_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_texts, inner, max_size=4),
                            st.lists(_texts, max_size=4), st.lists(_finite, max_size=4)),
    max_leaves=20)


@given(_json_values)
@settings(max_examples=300, deadline=None)
def test_dumps_writes_the_bytes_of_json_dumps(value):
    assert _dumps(value) == _reference_json(value)


@given(st.lists(_json_values, max_size=4))
@settings(max_examples=100, deadline=None)
def test_emit_json_writes_an_iterator_as_json_dumps_writes_its_list(rows):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(iter(rows))
    assert out.getvalue() == _reference_json(rows) + "\n"  # "[]\n" for no rows


_PAYLOAD_ARGVS = (
    [["verify", "--suite", suite, "--max-n", "8"] for suite in ("all", "numeric", "exact")]
    + [["audit"]]
    + [["coeffs", "--seq", seq, flag, "30"] for seq in _SEQ_TOKENS for flag in ("--n", "--max-n")]
    + [["series", "--kind", kind, "--order", "12"] for kind in _SERIES_TOKENS]
    + [["eval", "--seq", seq, "--n", "40", "--x=-9/8"] for seq in _SEQ_TOKENS]
    + [["eval", "--seq", "g", "--n", "3", "--x", "1e400"],  # "float": null
       ["zeros", "--n", "24"], ["quad", "--max-n", "12"], ["ft", "--n", "5", "--s", "0.37"],
       ["moments", "--max-n", "21"]])


def test_every_payload_prints_the_bytes_of_json_dumps(capsys, monkeypatch):
    # the same process with the emitter swapped for the json.dumps reference: unlike a
    # digest of float output, this holds on any BLAS
    shipped = [run_cli(capsys, *argv) for argv in _PAYLOAD_ARGVS]
    monkeypatch.setattr(cli, "_dumps",
                        lambda obj, pad="": _reference_json(obj).replace("\n", "\n" + pad))
    for argv, (code, out, err) in zip(_PAYLOAD_ARGVS, shipped):
        assert code in (0, 1) and out and err == "", argv
        assert run_cli(capsys, *argv) == (code, out, err), argv


def test_coeffs_requires_exactly_one_selector(capsys):
    code, _, err = run_cli(capsys, "coeffs", "--seq", "g")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "coeffs", "--seq", "g", "--n", "2", "--max-n", "4")
    assert code == 2


def test_coeffs_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--seq", "g", "--max-n", "2",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,n,c0,c1,c2"
    assert lines[3] == "G,2,0,0,2"


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "--seq", "g", "--n", "3", "--x", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "1/2"
    assert payload["float"] == 0.5


def test_eval_past_the_float_range_keeps_the_exact_value(capsys):
    for argv in (["--seq", "g", "--n", "3", "--x", "1e400"],
                 ["--seq", "g-monic", "--n", "200", "--x", "1/2"]):
        code, out, _ = run_cli(capsys, "eval", *argv)
        assert code == 0, argv
        payload = json.loads(out)
        assert payload["float"] is None and len(payload["value"]) > 300, argv
    code, out, _ = run_cli(capsys, "eval", "--seq", "g", "--n", "3", "--x", "1e400",
                           "--format", "csv")
    assert code == 0 and out.splitlines()[1].endswith(",")  # an empty float field


def test_eval_prints_values_past_the_integer_string_limit(capsys):
    # 4590 and 5790 characters: past CPython's 4300-digit limit on int-to-str conversion
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for token, n, x in (("g-monic", 500, "1e9"), ("g", 200, "1e30")):
        code, out, _ = run_cli(capsys, "eval", "--seq", token, "--n", str(n), f"--x={x}")
        assert code == 0, (token, n, x)
        value = RECURRENCES[SeqKind.from_token(token)].value(n, Fraction(x))
        num, _, den = json.loads(out)["value"].partition("/")
        assert len(num) > 4300 and int(Decimal(num)) == value.numerator
        assert int(Decimal(den or "1")) == value.denominator
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _exact(text):
    num, _, den = text.partition("/")
    return Fraction(int(Decimal(num)), int(Decimal(den or "1")))


def test_eval_reads_points_past_the_integer_string_limit(capsys):
    # 5000 digits, far inside the EVAL_DIGITS bound, where Fraction(text) stops at 4300
    for x in ("7" * 5000, "7" * 5000 + "/1" + "0" * 4999):
        code, out, _ = run_cli(capsys, "eval", "--seq", "g", "--n", "1", f"--x={x}")
        assert code == 0, x[-10:]
        payload = json.loads(out)
        assert _exact(payload["x"]) == _exact(x)
        assert _exact(payload["value"]) == 2 * _exact(x)  # g_1 = 2x


@given(st.text(alphabet="0123456789.+-/eE", max_size=7))
@settings(max_examples=300, deadline=None)
def test_eval_reads_a_point_as_fraction_does(text):
    # no underscore or space, whose use Python versions read apart; up to 7 characters,
    # so that no point reaches the EVAL_DIGITS bound
    from mlpoly.cli import _point

    def read(parse):
        try:
            return parse(text)
        except (ValueError, ZeroDivisionError) as exc:
            return type(exc), str(exc)

    expected = read(Fraction)
    if isinstance(expected, tuple) and expected[0] is ZeroDivisionError:
        # p/0, refused with a message that names --x
        expected = ValueError, f"--x={text} has a zero denominator"
    assert read(lambda t: _point(t, 1)) == expected


def test_eval_refuses_a_point_past_the_digit_bound_at_once(capsys):
    from mlpoly.cli import EVAL_DIGITS
    for x in ("1e99999", "-1e-99999", "1e999999999999", f"10e{EVAL_DIGITS + 1}"):
        code, out, err = run_cli(capsys, "eval", "--seq", "g", "--n", "200", f"--x={x}")
        assert _one_line_error(code, out, err), x
        assert f"the bound of {EVAL_DIGITS} digits" in err, x
    # n * log10(max(|numerator|, denominator)) against the bound: 99 500, then 100 500
    assert run_cli(capsys, "eval", "--seq", "g", "--n", "500", "--x=3e-199")[0] == 0
    assert _one_line_error(*run_cli(capsys, "eval", "--seq", "g", "--n", "500", "--x=3e-201"))


def test_eval_rejects_bad_point(capsys):
    code, _, err = run_cli(capsys, "eval", "--seq", "g", "--n", "3", "--x", "sqrt2")
    assert code == 2 and "error" in err
    code, out, err = run_cli(capsys, "eval", "--seq", "g", "--n", "3", "--x", "5/0")
    assert (code, out, err) == (2, "", "mlpoly: error: --x=5/0 has a zero denominator\n")


def test_eval_rejects_a_negative_index(capsys):
    code, out, err = run_cli(capsys, "eval", "--seq", "g", "--n", "-1", "--x", "1/2")
    assert (code, out, err) == (2, "", "mlpoly: error: table length must be non-negative\n")


def _eval_by_table(capsys, kind, table, n, x, fmt):
    """What eval printed when it read the value off the whole table."""
    value = table[n](Fraction(x))
    try:
        approx = float(value)
    except OverflowError:
        approx = None
    _emit_records({"kind": kind.value, "n": n, "x": str(Fraction(x)),
                   "value": str(value), "float": approx}, fmt)
    return capsys.readouterr().out


def test_eval_prints_the_bytes_of_the_table_member(capsys):
    nulls = set()
    for token in _SEQ_TOKENS:
        kind = SeqKind.from_token(token)
        table = generate(kind, 200)
        for n in (0, 1, 2, 3, 20, 110, 200):
            for x in ("0", "3/4", "-9/8", "5", "-1/7", "0.25"):
                for fmt in ("json", "csv"):
                    code, out, _ = run_cli(capsys, "eval", "--seq", token, "--n", str(n),
                                           f"--x={x}", "--format", fmt)
                    assert code == 0 and out == _eval_by_table(capsys, kind, table, n, x, fmt), \
                        (token, n, x, fmt)
                    if fmt == "json" and json.loads(out)["float"] is None:
                        nulls.add((token, n, x))
    # past the float range: both monic families at n = 200, wherever x is not 0
    assert {(t, x) for t, n, x in nulls if n == 200} >= {
        (t, x) for t in ("g-monic", "phi-monic") for x in ("3/4", "-9/8", "5", "-1/7", "0.25")}


def test_zeros(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["zeros"][-1] == pytest.approx(2.945205360271868, abs=1e-9)
    assert payload["zeros"][2] == 0.0


def test_zeros_csv(capsys):
    code, out, _ = run_cli(capsys, "zeros", "--n", "2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,zero"
    assert len(lines) == 3


def test_zeros_rejects_non_finite_tol(capsys):
    for tol in ("nan", "inf"):
        code, out, err = run_cli(capsys, "zeros", "--n", "3", "--tol", tol)
        assert code == 2 and out == ""
        assert err == "mlpoly: error: tolerance must be positive and finite\n"


def test_emit_json_refuses_non_finite_floats(capsys):
    for v in (math.nan, math.inf, -math.inf):
        # alone, in a dict, last in a list of floats, and in a list of mixed values
        for payload in (v, {"x": v}, [1.0, 2.0, v], ["a", 1, v], [[0.5], {"y": [v]}]):
            with pytest.raises(ValueError) as expected:
                _reference_json(payload)
            with pytest.raises(ValueError) as raised:
                _emit_json(payload)
            assert str(raised.value) == str(expected.value), payload
    assert str(raised.value) == "Out of range float values are not JSON compliant: -inf"
    assert capsys.readouterr().out == ""
    # finite floats whose sum overflows are written
    assert _dumps([1e308, 1e308, -1e308]) == _reference_json([1e308, 1e308, -1e308])


@st.composite
def _symmetric_rows(draw):
    n = draw(st.integers(1, 5))
    lower = [[draw(_finite) for _ in range(i + 1)] for i in range(n)]
    return [[lower[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]


@given(_symmetric_rows(), st.sampled_from(["", "  "]))
@settings(max_examples=100, deadline=None)
def test_a_symmetric_matrix_is_written_as_json_dumps_writes_its_rows(rows, pad):
    assert _dumps(_Symmetric(rows), pad) == _reference_json(rows).replace("\n", "\n" + pad)
    assert _symmetric_texts(rows, repr) == [[repr(v) for v in row] for row in rows]


def test_a_symmetric_matrix_with_a_non_finite_entry_is_refused_as_json_dumps_refuses_it():
    for v in (math.nan, math.inf, -math.inf):
        # on the diagonal, and mirrored, where row-major order reaches the upper copy first
        for rows in ([[1.0, 2.0], [2.0, v]], [[0.5, v, 1.0], [v, 1.0, 3.0], [1.0, 3.0, 2.0]]):
            with pytest.raises(ValueError) as expected:
                _reference_json(rows)
            with pytest.raises(ValueError) as raised:
                _dumps(_Symmetric(rows))
            assert str(raised.value) == str(expected.value), rows


# what json writes unchanged inside quotes, and all that _Plain may hold
_PLAIN = re.compile(r"-?[0-9]+(/[0-9]+)?")


def test_every_coefficient_string_is_plain():
    polys = [p for kind in SeqKind for p in generate(kind, 60)]
    polys += [p for kind in (SeqKind.G, SeqKind.PHI, SeqKind.PHI_MONIC)
              for p in generating_series(kind, 61)]
    polys += [p for kind in ("arctan_half", "artanh", "tan_half", "log_ratio")
              for p in elementary(kind, 61)]
    for p in polys:
        for text in p.to_strings():
            assert _PLAIN.fullmatch(text), (p, text)


@given(st.lists(st.from_regex(_PLAIN, fullmatch=True), max_size=5), st.sampled_from(["", "  "]))
@settings(max_examples=100, deadline=None)
def test_a_plain_list_is_written_as_json_dumps_writes_it(texts, pad):
    assert _dumps(_Plain(texts), pad) == _reference_json(texts).replace("\n", "\n" + pad)
    record = {"coeffs": _Plain(texts), "n": 3}
    assert _dumps(record) == _reference_json({"coeffs": texts, "n": 3})


def test_quad(capsys):
    code, out, _ = run_cli(capsys, "quad", "--max-n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    assert payload["max_abs_deviation"] < 1e-8
    assert payload["matrix"][0][0] == pytest.approx(2.0, abs=1e-8)


def test_quad_smallest_sizes(capsys):
    for max_n, diagonal in (("0", [2.0]), ("1", [2.0, 1.0])):
        code, out, _ = run_cli(capsys, "quad", "--max-n", max_n)
        assert code == 0
        payload = json.loads(out)
        mat = payload["matrix"]
        assert payload["size"] == len(mat) == len(diagonal)
        assert [row[i] for i, row in enumerate(mat)] == pytest.approx(diagonal, abs=1e-8)
        assert mat == [list(col) for col in zip(*mat)]
        assert payload["max_abs_deviation"] < 1e-8


def test_quad_stays_within_its_bound_up_to_80(capsys):
    for max_n in ("59", "60", "70", "80"):
        code, out, _ = run_cli(capsys, "quad", "--max-n", max_n)
        assert code == 0
        assert json.loads(out)["max_abs_deviation"] < 1e-8, max_n


def test_verify_numeric_passes_at_max_n_80(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "numeric", "--max-n", "80")
    assert code == 0
    assert json.loads(out)["summary"]["fail"] == 0


def test_quadrature_output_does_not_depend_on_the_blas_thread_count():
    src = str(Path(__file__).resolve().parents[1] / "src")
    for argv in (["quad", "--max-n", "70"], ["moments", "--max-n", "61"]):
        outs = {subprocess.run([sys.executable, "-m", "mlpoly", *argv], capture_output=True,
                               check=True, timeout=120,
                               env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n)).stdout
                for n in ("1", "2")}
        assert len(outs) == 1, argv


def test_zeros_do_not_depend_on_the_kernel_or_thread_count_of_the_estimates():
    # the SVD estimates differ in their last bits under OpenBLAS's Prescott kernel, and at
    # 2000 the tight bracket misses other lanes there; the estimates decide no step, so the
    # zeros keep their bytes (a numpy on another BLAS ignores both variables)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    for n in ("400", "2000"):
        outs = {subprocess.run([sys.executable, "-m", "mlpoly", "zeros", "--n", n],
                               capture_output=True, check=True, timeout=120,
                               env=dict(env, PYTHONPATH=src, **extra)).stdout
                for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"},
                              {"OPENBLAS_NUM_THREADS": "1"})}
        assert len(outs) == 1, n


def _one_process_and_fresh(argvs):
    """stdout of argvs run through main in one process, and of each run as a fresh one."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = ("from mlpoly.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    assert main(argv) == 0\n")
    one = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True,
                         timeout=120, env=env).stdout
    fresh = b"".join(subprocess.run([sys.executable, "-m", "mlpoly", *argv],
                                    capture_output=True, check=True, timeout=120,
                                    env=env).stdout for argv in argvs)
    return one, fresh


def test_a_process_repeating_moments_prints_the_bytes_of_fresh_processes():
    one, fresh = _one_process_and_fresh([["moments", "--max-n", m]
                                         for m in ("61", "9", "29", "61")])
    assert one == fresh


def test_a_process_repeating_quad_and_zeros_prints_the_bytes_of_fresh_processes():
    # the second of each is served by the memo of analysis
    one, fresh = _one_process_and_fresh([["quad", "--max-n", "80"], ["zeros", "--n", "400"],
                                         ["quad", "--max-n", "12", "--format", "csv"],
                                         ["quad", "--max-n", "80"], ["zeros", "--n", "400"]])
    assert one == fresh


def test_a_process_repeating_table_queries_prints_the_bytes_of_fresh_processes():
    # after the first round every query reads a table generate kept: the --n 110 member is
    # a prefix of the --max-n 200 table, and ft's norm reads the PHI_MONIC table
    queries = [["coeffs", "--seq", "phi-monic", "--max-n", "200"],
               ["coeffs", "--seq", "g", "--max-n", "200"], ["coeffs", "--seq", "g", "--n", "110"],
               ["ft", "--n", "20", "--s", "0.5"], ["series", "--kind", "g-monic", "--order", "40"]]
    one, fresh = _one_process_and_fresh(queries * 2)
    assert one == fresh


def test_verify_and_audit_in_one_process_print_the_bytes_of_fresh_processes():
    # a fresh process runs with the cycle collector off and a frozen heap, main in process
    # with the caller's collector
    one, fresh = _one_process_and_fresh([["verify", "--suite", "all"],
                                         ["verify", "--suite", "all", "--format", "csv"],
                                         ["audit"]])
    assert one == fresh


# sha256 of quad stdout at the term-by-term truncation (numpy 2.4, x86-64), up to the
# largest size served, from the half-line sum: the odd pairs print 0.0.  The weight calls
# np.sinh, now on the nodes t > 0 only, and its last bits still set these digests: they
# depend on the SIMD code numpy dispatches, and were taken where it runs its AVX-512 code;
# a CPU without AVX-512 (glibc's sinh) prints other bytes, until the weight stops calling it.
_QUAD_SHA256 = {
    63: "52ff55565bc20346617ca368bc2fd96c908c27334ce40424b34f42d2086dc3ce",
    80: "40a00ad97f8efdfc1b27721524d43549a76e8d895f7b5365034c76776042f02b",
    102: "8c92c096439992e1454e6cd044e801091555579f10d65496539551e7cd1f92bf",
    113: "1c7465d36f47333f196e52e8510ba02f3bd81c0f6f6679aee9d5c60e33cd6b02",
}


@pytest.mark.parametrize("n", sorted(_QUAD_SHA256))
def test_quad_bytes_are_pinned(capsys, n):
    code, out, _ = run_cli(capsys, "quad", "--max-n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _QUAD_SHA256[n]


def test_ft(capsys):
    code, out, _ = run_cli(capsys, "ft", "--n", "1", "--s", "1.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["closed"] == pytest.approx(0.07249399409756802, rel=1e-12)
    assert payload["abs_deviation"] < 1e-8
    assert payload["phase"] == "i^1"


def test_moments(capsys):
    code, out, _ = run_cli(capsys, "moments", "--max-n", "9")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == [1, 3, 5, 7, 9]
    assert rows[0]["closed"] == "1/2*pi^2"
    assert rows[0]["closed_float"] == pytest.approx(math.pi**2 / 2, rel=1e-12)
    assert all(r["rel_deviation"] < 1e-8 for r in rows)


# sha256 of the 31 closed strings of moments --max-n 61, joined by newlines: exact
# rationals times a power of pi, so the digest holds on every platform
MOMENTS_61_CLOSED_SHA256 = "8c9c9fa21c7c55aa4a1c53f03627a0f4bd27eed58c7eacf1eb3a3e559172e33a"


def test_moments_print_the_pinned_exact_closed_forms(capsys):
    from mlpoly.analysis import moment
    code, out, _ = run_cli(capsys, "moments", "--max-n", "61")
    assert code == 0
    rows = json.loads(out)
    assert [r["n"] for r in rows] == list(range(1, 62, 2))
    closed = "\n".join(r["closed"] for r in rows)
    assert hashlib.sha256(closed.encode()).hexdigest() == MOMENTS_61_CLOSED_SHA256
    # the float is the exact rational times the machine pi power, bit for bit
    assert [r["closed_float"] for r in rows] == [
        float(moment(n).closed) * math.pi ** (n + 1) for n in range(1, 62, 2)]


def test_verify_exact(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact", "--max-n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    assert payload["summary"]["pass"] > 0
    assert payload["tool"] == "mlpoly"
    assert payload["command"] == "verify --suite exact --max-n 6"
    statuses = {r["status"] for r in payload["reports"]}
    assert statuses <= {"PASS", "AUDITED"}


def test_verify_numeric(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "numeric", "--max-n", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["fail"] == 0
    identities = {r["identity"] for r in payload["reports"]}
    assert "orthogonality-matrix" in identities
    assert "zeros-reference" in identities


def test_verify_rejects_max_n_below_1(capsys):
    for suite in ("exact", "numeric", "all"):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "0")
        assert code == 2 and out == ""
        assert err == "mlpoly: error: max_n must be at least 1, got 0\n"


def test_verify_all_lists_each_report_once(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all")
    assert code == 0
    payload = json.loads(out)
    rows = [json.dumps(r, sort_keys=True) for r in payload["reports"]]
    assert len(rows) == len(set(rows)) == 27
    assert payload["summary"] == {"pass": 20, "fail": 0, "audited": 7}


def test_verify_is_deterministic(capsys):
    argv = ("verify", "--suite", "exact", "--max-n", "5")
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_csv_summary_row(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact", "--max-n", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "identity,n_lo,n_hi,status,max_deviation,note"
    assert lines[-1].startswith("summary,")


# The exact suite prints no floats, so these hold on every platform.  Update them only
# for an output change that CHANGES.md names.
_EXACT_40_SHA256 = {
    "json": "a99f38ca090d803a0a415affb60b3f490604f82ec10888b0562a4e4c5e63addc",
    "csv": "757ab956c26ee0cabca606d10c1b3abd7ee1b804e8b95cbbe75522c74ab0d16d",
}


@pytest.mark.parametrize("fmt", sorted(_EXACT_40_SHA256))
def test_verify_exact_40_bytes_are_pinned(capsys, fmt):
    argv = ["verify", "--suite", "exact", "--max-n", "40"]
    code, out, _ = run_cli(capsys, *(argv if fmt == "json" else argv + ["--format", "csv"]))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXACT_40_SHA256[fmt]


# The JSON of the exact suite at two more sizes: below the shortest range of any check, and
# where the convolution and lowering verdicts follow from the derivative expansion.
_EXACT_JSON_SHA256 = {
    3: "737665346d067fe59d1affed109020271808a0b8f148fff79cc375fad7800085",
    80: "659175aeefaa1085a3a81543926aee748de615f1d2a0ec3583ecfa1da175e7ac",
}


@pytest.mark.parametrize("max_n", sorted(_EXACT_JSON_SHA256))
def test_verify_exact_json_bytes_are_pinned(capsys, max_n):
    code, out, _ = run_cli(capsys, "verify", "--suite", "exact", "--max-n", str(max_n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EXACT_JSON_SHA256[max_n]


# The exact series and tables print no floats either.
_SERIES_40_SHA256 = {
    "g": "a0d2ef1ae9156a2dc4b82a5506aa401e604e687481eba22affe778f28f44796b",
    "g-monic": "3e4ac707db34a7bbdca09999a3547a9c9285480ced6e9fe20d4a87cd83f587ac",
    "phi": "e937bd2ea0c746d83f50d9babbd2b6161f53fdf277ad3282923c4442c411a1b3",
    "phi-monic": "10deec79f407099bf87e4cbf503aab5cf720841b0375a1947640c051be6ef6dd",
    "arctan-half": "cb620f3037c49528ff19fcfa7d214de0eef3c4fa9b160214721da875b1de2348",
    "artanh": "0b898d994aa909935444a8289583e5c482a3fdd8ffa76a2ee95a606621cd3743",
    "tan-half": "112e16e74f3948aaf3acc8755258f7a06ae9ae5eebf3a0cd76a0e1f805e4c6c8",
    "log-ratio": "0b898d994aa909935444a8289583e5c482a3fdd8ffa76a2ee95a606621cd3743",
}
# orders 1, 2 and 3
_SERIES_SMALL_SHA256 = {
    "g": ("d702fba001de37475f2f6294747f2c7e70314830d41d3bbcab2812af1369a8f8",
          "d5c0bbbc1088550e54bb9344e30d85f3f5e160ea27cb09b153d1343aec85e58e",
          "c9043a064efc938fe7f9fcd8a01d8b9bea8d8122e6b44117222fb137223ccb25"),
    "g-monic": ("d702fba001de37475f2f6294747f2c7e70314830d41d3bbcab2812af1369a8f8",
                "3eab109825d00912c974f43c8ca7d8bb9cac3a0627b6fd49e63c1c80bd45e656",
                "a344c45429259b883d675e0454bc5710c8e4b72163807f2287b8996bacee12bf"),
    "phi": ("4604acfa7d587dcbcc145338249e886ffd3f0282346b12c62b07d89f31b124ae",
            "15225a96f1fb03c908c8a59ca651ec4e3bef0d4cc2735b501c0e12ff3c376239",
            "bb0420fb9848a33958390ca2ac2c9760b28f5275fc0cc1c9d0cbde74e5b9618e"),
    "phi-monic": ("d702fba001de37475f2f6294747f2c7e70314830d41d3bbcab2812af1369a8f8",
                  "3eab109825d00912c974f43c8ca7d8bb9cac3a0627b6fd49e63c1c80bd45e656",
                  "4511f30286ab34e65e06ef9d0c6914149a5f9babf44e925d5e12e44a466065c9"),
    "arctan-half": ("21e9a9bf124fc00511ce5d89199ed79709026cdec779766b8b67e0f4336d9728",
                    "b8f3750c63720b4cb2987be00b79f2b6d5ee9b11effa23ba8811a0e810e336ec",
                    "d58bd637aa209db120e78c7b51bc5a5f9ed358b360c9c8156c6374e90d292eb6"),
    "artanh": ("21e9a9bf124fc00511ce5d89199ed79709026cdec779766b8b67e0f4336d9728",
               "f0e705b055cc0d6cc12439d265181eea85c839a0a657a14d94a10295d41e52ee",
               "2b0d129261d8d516957c3f436fb7f0eb5296dfbabbf6df2c940382fb042201aa"),
    "tan-half": ("21e9a9bf124fc00511ce5d89199ed79709026cdec779766b8b67e0f4336d9728",
                 "b8f3750c63720b4cb2987be00b79f2b6d5ee9b11effa23ba8811a0e810e336ec",
                 "d58bd637aa209db120e78c7b51bc5a5f9ed358b360c9c8156c6374e90d292eb6"),
    "log-ratio": ("21e9a9bf124fc00511ce5d89199ed79709026cdec779766b8b67e0f4336d9728",
                  "f0e705b055cc0d6cc12439d265181eea85c839a0a657a14d94a10295d41e52ee",
                  "2b0d129261d8d516957c3f436fb7f0eb5296dfbabbf6df2c940382fb042201aa"),
}
_COEFFS_60_SHA256 = {
    "g": "4d016a4fa155977c1f0697ab0173ff9e0352993f212e399a9bb3b09b3d211667",
    "g-monic": "1437fc1d84ff55e7491678beef54fe335849102c4ff6174c24186daecf78b09b",
    "phi": "7149593448dcc2e74bc5b61df604fb789215b1a325b2ee715fe44526533e0917",
    "phi-monic": "9cee25852c504169d54d78b5c73e4a6dd5557648f45ee5ab8bdac62ca579cd7a",
    "pidduck": "bfd461cb33eb51b6201fb9270a34a55438bd3b3f7b64a418b202e83a255e1ad4",
}


@pytest.mark.parametrize("kind", _SERIES_TOKENS)
def test_series_40_bytes_are_pinned(capsys, kind):
    # and orders 1, 2 and 3, where the PHI route's t^0 drop and the monic series' n > 1
    # division run on the shortest tuples
    digests = (*_SERIES_SMALL_SHA256[kind], _SERIES_40_SHA256[kind])
    for order, digest in zip((1, 2, 3, 40), digests):
        code, out, _ = run_cli(capsys, "series", "--kind", kind, "--order", str(order))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, order


@pytest.mark.parametrize("seq", _SEQ_TOKENS)
def test_coeffs_60_bytes_are_pinned(capsys, seq):
    code, out, _ = run_cli(capsys, "coeffs", "--seq", seq, "--max-n", "60")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _COEFFS_60_SHA256[seq]


def test_audit(capsys):
    code, out, _ = run_cli(capsys, "audit")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"pass": 0, "fail": 0, "audited": 5}
    assert all(r["status"] == "AUDITED" for r in payload["reports"])


def test_audited_reports_do_not_fail_exit_code(capsys):
    # AUDITED entries are expected output; only FAIL rows flip the exit code
    code, out, _ = run_cli(capsys, "audit")
    payload = json.loads(out)
    assert payload["summary"]["audited"] > 0 and code == 0


def test_series_elementary(capsys):
    code, out, _ = run_cli(capsys, "series", "--kind", "arctan-half", "--order", "6")
    assert code == 0
    rows = json.loads(out)
    assert rows[1]["coeffs"] == ["1"]
    assert rows[3]["coeffs"] == ["-1/12"]
    assert rows[5]["coeffs"] == ["1/80"]


def test_series_family_extractions(capsys):
    code, out, _ = run_cli(capsys, "series", "--kind", "g", "--order", "5")
    rows = json.loads(out)
    assert code == 0
    assert rows[3]["coeffs"] == ["0", "2/3", "0", "4/3"]

    code, out, _ = run_cli(capsys, "series", "--kind", "phi", "--order", "4")
    rows = json.loads(out)
    assert code == 0
    assert rows[0]["coeffs"] == ["2"]
    assert rows[2]["coeffs"] == ["-2/3", "0", "4/3"]

    code, out, _ = run_cli(capsys, "series", "--kind", "phi-monic", "--order", "4")
    rows = json.loads(out)
    assert code == 0
    # t^3 coefficient is p_3/3! = (x^3 - 2x)/6
    assert rows[3]["coeffs"] == ["0", "-1/3", "0", "1/6"]

    code, out, _ = run_cli(capsys, "series", "--kind", "g-monic", "--order", "4")
    rows = json.loads(out)
    assert code == 0
    assert rows[3]["coeffs"] == ["0", "1/2", "0", "1"]


def test_series_csv(capsys):
    code, out, _ = run_cli(capsys, "series", "--kind", "artanh", "--order", "4",
                           "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "t_power,c0"


def test_unknown_choices_exit_2(capsys):
    for argv in (["verify", "--suite", "bogus"],
                 ["coeffs", "--seq", "hermite", "--n", "2"],
                 ["series", "--kind", "exp", "--order", "4"],
                 ["nonsense"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()
    # the choices are derived from SeqKind; their order is the bytes of every usage line
    assert _SEQ_TOKENS == ("g", "g-monic", "phi", "phi-monic", "pidduck")
    assert _SERIES_TOKENS == ("g", "g-monic", "phi", "phi-monic", "arctan-half", "artanh",
                              "tan-half", "log-ratio")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mlpoly" in capsys.readouterr().out


def _one_line_error(code, out, err):
    return code == 2 and out == "" and err.startswith("mlpoly: error: ") and err.count("\n") == 1


def _entry_process(*args):
    """A fresh `python ARGS` process with src/ on its path; text output."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=120,
                          env=dict(os.environ,
                                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")))


def test_the_process_entry_keeps_the_exit_contract_of_main():
    done = _entry_process("-m", "mlpoly", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, f"mlpoly {__version__}\n", "")
    # argparse's SystemExit: the usage, then one error line with main's prefix
    for argv, usage, last in (
            (["coeffs", "--seq", "zz", "--n", "1"], "usage: mlpoly coeffs ",
             "mlpoly: error: argument --seq: invalid choice: 'zz'"),
            (["nosuch"], "usage: mlpoly [-h]",
             "mlpoly: error: argument command: invalid choice: 'nosuch'")):
        done = _entry_process("-m", "mlpoly", *argv)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith(usage)
        assert done.stderr.count(": error: ") == 1
        assert done.stderr.splitlines()[-1].startswith(last)
    # a refusal main returns
    done = _entry_process("-m", "mlpoly", "quad", "--max-n", "-1")
    assert _one_line_error(done.returncode, done.stdout, done.stderr)


def test_a_reader_that_closes_early_ends_the_command_silently():
    # 2 MB of rows, far past what the pipe and the stdout buffer hold, so the writes after
    # the close fail
    proc = subprocess.Popen(
        [sys.executable, "-m", "mlpoly", "coeffs", "--seq", "pidduck", "--max-n", "150"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")))
    assert proc.stdout.read(10) == b"[\n  {\n    "
    proc.stdout.close()
    assert proc.wait(timeout=120) == cli.CLOSED_STDOUT == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_main_leaves_the_collector_of_its_caller_as_it_found_it(capsys):
    queries = (["coeffs", "--seq", "g", "--n", "3"],
               ["eval", "--seq", "phi", "--n", "3", "--x", "1/2"], ["zeros", "--n", "4"],
               ["quad", "--max-n", "3"], ["ft", "--n", "2", "--s", "1"],
               ["moments", "--max-n", "5"], ["verify", "--suite", "exact", "--max-n", "3"],
               ["audit"], ["series", "--kind", "g", "--order", "3"], ["--version"])
    enabled = gc.isenabled()
    try:
        for collector in (gc.enable, gc.disable):
            collector()
            state = (gc.isenabled(), gc.get_freeze_count())
            for argv in queries:
                with contextlib.suppress(SystemExit):
                    main(argv)
                capsys.readouterr()
                assert (gc.isenabled(), gc.get_freeze_count()) == state, argv
    finally:
        (gc.enable if enabled else gc.disable)()


def test_importing_the_entry_changes_nothing_until_run_is_called():
    # the installed command's wrapper imports the module pyproject.toml names, then calls
    # the function; python -m mlpoly calls the same one
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^mlpoly = "mlpoly.__main__:run"$', pyproject, re.M)
    for argv, ends in ((["coeffs", "--seq", "g", "--n", "2"], "returned 0"),
                       (["--version"], "exited 0")):
        code = ("import gc, sys\n"
                "import mlpoly.__main__ as entry\n"
                "assert gc.isenabled() and gc.get_freeze_count() == 0\n"
                "assert 'mlpoly.cli' not in sys.modules and 'numpy' not in sys.modules\n"
                f"sys.argv = ['mlpoly', *{argv!r}]\n"
                "try:\n"
                "    ends = f'returned {entry.run()}'\n"
                "except SystemExit as exc:\n"
                "    ends = f'exited {exc.code}'\n"
                "print(ends, gc.isenabled(), gc.get_freeze_count() > 0, file=sys.stderr)\n")
        done = _entry_process("-c", code)
        assert done.returncode == 0, done.stderr
        assert done.stderr == f"{ends} False True\n", argv


def test_one_parser_serves_every_call_of_a_process(capsys):
    assert _build_parser() is _build_parser()
    first = run_cli(capsys, "coeffs", "--seq", "phi", "--n", "6")
    assert first[0] == 0
    # a size above its ceiling is refused from inside parse_args, half way through argv
    assert _one_line_error(*run_cli(capsys, "zeros", "--n", "2001", "--tol", "1e-9"))
    assert run_cli(capsys, "coeffs", "--seq", "phi", "--n", "6") == first
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"mlpoly {__version__}\n"


def test_sizes_above_their_ceiling_exit_2_before_any_work(capsys):
    from mlpoly.cli import (FT_CEILING, QUAD_CEILING, SERIES_CEILING, TABLE_CEILING,
                            VERIFY_CEILING, ZEROS_CEILING, _build_parser)
    # the largest sizes in use, and the refusal tests of quad and ft keep their messages
    assert ZEROS_CEILING >= 400 and TABLE_CEILING >= 200
    assert SERIES_CEILING >= 40 and VERIFY_CEILING >= 80
    assert QUAD_CEILING >= 150 and FT_CEILING >= 170
    parser = _build_parser()
    for argv in (["zeros", "--n", "100000000"], ["zeros", "--n", str(ZEROS_CEILING + 1)],
                 ["coeffs", "--seq", "g", "--n", str(TABLE_CEILING + 1)],
                 ["coeffs", "--seq", "pidduck", "--max-n", "100000000"],
                 ["eval", "--seq", "phi", "--n", "100000000", "--x", "1"],
                 ["series", "--kind", "tan-half", "--order", "2000"],
                 ["series", "--kind", "phi-monic", "--order", str(SERIES_CEILING + 1)],
                 ["verify", "--suite", "exact", "--max-n", str(VERIFY_CEILING + 1)],
                 ["verify", "--max-n", "100000000"],
                 ["quad", "--max-n", str(QUAD_CEILING + 1)], ["quad", "--max-n", "3000"],
                 ["ft", "--n", str(FT_CEILING + 1), "--s", "1"],
                 ["ft", "--n", "3000000", "--s", "1"]):
        code, out, err = run_cli(capsys, *argv)
        assert _one_line_error(code, out, err), argv
        assert "is above the ceiling" in err
    # the ceilings themselves parse (parsing starts no computation)
    assert parser.parse_args(["zeros", "--n", str(ZEROS_CEILING)]).n == ZEROS_CEILING
    assert parser.parse_args(["coeffs", "--seq", "g", "--max-n",
                              str(TABLE_CEILING)]).max_n == TABLE_CEILING
    assert parser.parse_args(["series", "--kind", "g", "--order",
                              str(SERIES_CEILING)]).order == SERIES_CEILING
    assert parser.parse_args(["verify", "--max-n", str(VERIFY_CEILING)]).max_n == VERIFY_CEILING
    assert parser.parse_args(["quad", "--max-n", str(QUAD_CEILING)]).max_n == QUAD_CEILING
    assert parser.parse_args(["ft", "--n", str(FT_CEILING), "--s", "1"]).n == FT_CEILING


def test_quad_and_ft_ceilings_cut_only_sizes_refused_anyway(capsys):
    from mlpoly.cli import FT_CEILING, QUAD_CEILING
    # quad serves --max-n 113 and refuses every size from 114, where its tail envelope
    # leaves the float range; ft serves --n 120 and refuses from 121, whatever s is (its
    # quadrature truncation does not depend on s)
    assert run_cli(capsys, "quad", "--max-n", "113")[0] == 0
    for n in (114, QUAD_CEILING):
        code, out, err = run_cli(capsys, "quad", "--max-n", str(n))
        assert _one_line_error(code, out, err) and "leaves the float range" in err, n
    for s in ("1", "0", "30"):
        assert run_cli(capsys, "ft", "--n", "120", "--s", s)[0] == 0, s
        for n in (121, FT_CEILING):
            assert _one_line_error(*run_cli(capsys, "ft", "--n", str(n), "--s", s)), (n, s)


def test_exact_commands_do_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import contextlib, io, sys\n"
            "from mlpoly import cli\n"
            "for argv in (['coeffs', '--seq', 'g', '--n', '5'],\n"
            "             ['eval', '--seq', 'pidduck', '--n', '5', '--x', '1/3'],\n"
            "             ['series', '--kind', 'g', '--order', '5'],\n"
            "             ['verify', '--suite', 'exact', '--max-n', '3']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('numpy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True).stdout
    assert out == "[]\n"


def _imported(*args: str) -> set[str]:
    """The modules a fresh python process started with args imports, by -X importtime."""
    src = Path(__file__).resolve().parents[1] / "src"
    err = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                         timeout=120).stderr
    return {line.rsplit("|", 1)[1].strip() for line in err.splitlines()
            if line.startswith("import time:")}


def test_verify_does_not_load_the_modules_only_other_commands_use():
    # numpy.polynomial (the panel rule is written out), csv (the CSV writer) and decimal
    # (eval's exact strings); the standard library's fractions imports decimal itself on
    # CPython 3.10-3.13, so a module counts where importing fractions alone does not load it
    unused = {"numpy.polynomial", "csv", "decimal"} - _imported("-c", "import fractions")
    assert {"numpy.polynomial", "csv"} <= unused
    loaded = _imported("-m", "mlpoly", "verify", "--suite", "all")
    assert "mlpoly.suite" in loaded and "numpy" in loaded
    assert not unused & loaded


def test_zeros_rejects_a_tol_too_wide_to_separate_the_zeros(capsys):
    code, out, err = run_cli(capsys, "zeros", "--n", "3", "--tol", "10")
    assert _one_line_error(code, out, err)
    assert "cannot separate the zeros of sizes 2 and 3" in err


def test_quad_past_every_truncation_exits_2(capsys):
    code, out, err = run_cli(capsys, "quad", "--max-n", "150")
    assert _one_line_error(code, out, err)
    assert err == ("mlpoly: error: the tail envelope of the Gram matrix at max_n = 150 "
                   "leaves the float range\n")


def test_ft_beyond_the_float_range_exits_2(capsys):
    for argv in (["--n", "170", "--s", "1"], ["--n", "2", "--s", "1e308"],
                 ["--n", "3", "--s", "nan"], ["--n", "300", "--s", "0"]):
        code, out, err = run_cli(capsys, "ft", *argv)
        assert _one_line_error(code, out, err), argv


def test_moments_rejects_max_n_below_1(capsys):
    for max_n in ("0", "-3"):
        code, out, err = run_cli(capsys, "moments", "--max-n", max_n)
        assert _one_line_error(code, out, err)
        assert err == f"mlpoly: error: max_n must be at least 1, got {max_n}\n"


def test_series_order_below_1_has_one_message_for_every_kind(capsys):
    for kind in ("g-monic", "g", "phi-monic", "artanh"):
        code, out, err = run_cli(capsys, "series", "--kind", kind, "--order", "0")
        assert _one_line_error(code, out, err)
        assert err == "mlpoly: error: series order must be at least 1\n"


_sizes = st.integers(min_value=-3, max_value=30).map(str)
_floats = st.one_of(st.floats(min_value=-8.0, max_value=8.0),
                    st.floats(allow_nan=True, allow_infinity=True)).map(repr)
_points = st.one_of(st.fractions(max_denominator=50).map(str), _floats,
                    st.sampled_from(["1/0", "abc", ""]))
# (flag, values, required): a required flag is left out one time in ten, an optional
# one half the time
_ARGV = {
    "coeffs": [("--seq", st.sampled_from(_SEQ_TOKENS), True), ("--n", _sizes, False),
               ("--max-n", _sizes, False)],
    "eval": [("--seq", st.sampled_from(_SEQ_TOKENS), True), ("--n", _sizes, True),
             ("--x", _points, True)],
    "zeros": [("--n", _sizes, True),
              ("--tol", st.floats(min_value=1e-15, allow_infinity=True).map(repr), False)],
    "quad": [("--max-n", _sizes, False)],
    "ft": [("--n", _sizes, True), ("--s", _floats, True)],
    "moments": [("--max-n", _sizes, False)],
    "verify": [("--suite", st.sampled_from(["exact", "numeric", "all"]), False),
               ("--max-n", _sizes, False)],
    "audit": [],
    "series": [("--kind", st.sampled_from(_SERIES_TOKENS), True), ("--order", _sizes, False)],
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_ARGV)))
    argv = [command]
    for flag, values, required in _ARGV[command] + [
            ("--format", st.sampled_from(["json", "csv"]), False)]:
        if draw(st.integers(0, 9)) < (9 if required else 5):
            argv += [flag, draw(values)]
    return argv


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@given(_argvs())
@settings(max_examples=60, deadline=None)
def test_every_argv_exits_0_1_or_2_without_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    if code == 0 and "csv" not in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
