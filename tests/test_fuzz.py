"""Fuzzing of the spec and tuple parsers and of the CLI, with hypothesis.

Whatever the input, the parsers (spec, tuple and single polynomial) return
or raise SpecSyntaxError, and `recint brackets`, `gen`, `certify` and
`expand` exit with a code of the exit-code contract (0 ok, 1 mismatch,
2 usage/parse, 3 I/O) and print no traceback.

Inputs mix arbitrary text with text assembled from the grammar's own
pieces.  Every piece ends in a space, so digits never run together: the
exponents, lags and levels stay small and each example is cheap.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from recint.cli import main
from recint.multipoly import VarSet
from recint.reclang import SpecSyntaxError, parse_poly, parse_poly_list, parse_spec

FUZZ = settings(max_examples=100, deadline=None)

POLY_PIECES = tuple(
    f"{p} "
    for p in (
        *"tbcn0123579",
        *"+-*^(),",
        "t^3",
        "t^5",
        "3*t",
        "1/2",
        "x",
        "[",
        "]",
        "#",
        "",
    )
)
DIV_PIECES = POLY_PIECES + ("/ ", "/0 ", "/(1-1) ", "/2 ", "/t ")
REC_PIECES = POLY_PIECES + ("w[n-1] ", "w[n-2] ", "w[n-3] ", "w[n] ", "w[n-0] ", "n*", "b*", "c*")


def assembled(pieces):
    return st.lists(st.sampled_from(pieces), max_size=14).map("".join)


def inputs(pieces):
    return st.one_of(assembled(pieces), st.text(max_size=40))


@st.composite
def spec_texts(draw):
    if draw(st.booleans()):
        return draw(st.text(max_size=60))
    ring = draw(st.sampled_from(("", "ring b c;", "ring b;", "ring n;", "ring b b;")))
    seq = draw(st.sampled_from(("seq w;", "", "seq b;")))
    head = draw(st.sampled_from(("n*w[n]", "n^2*w[n]", "n^0*w[n]", "w[n]", "n*w[n-1]")))
    rhs = draw(assembled(REC_PIECES))
    end = draw(st.sampled_from((";", "", ";;", "; rec: n*w[n] = w[n-1];")))
    return f"{ring}\n{seq}\nrec: {head} = {rhs}{end}\n"


@st.composite
def parsed_spec_texts(draw):
    """Specs that parse, so certify and expand get past the parser.  The
    factor 2*n - i of a lag-i term gives p_i(t) = 2*t, so some have an odd
    form."""
    head = draw(st.sampled_from(("n", "n^2")))
    terms = []
    for i in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        factors = draw(st.lists(st.sampled_from(("b", "c", "2", "-3", "1/2")), max_size=2))
        if draw(st.booleans()):
            factors.append(f"(2*n - {i})")
        terms.append(f"({'*'.join(factors) or '1'})*w[n-{i}]")
    return f"ring b c;\nseq w;\nrec: {head}*w[n] = {' + '.join(terms)};\n"


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@FUZZ
@given(text=spec_texts())
def test_parse_spec_raises_only_syntax_errors(text):
    try:
        parse_spec(text)
    except SpecSyntaxError:
        pass


@FUZZ
@given(text=inputs(POLY_PIECES))
def test_parse_poly_list_raises_only_syntax_errors(text):
    try:
        parse_poly_list(text, ("t",))
    except SpecSyntaxError:
        pass


@FUZZ
@given(text=inputs(DIV_PIECES))
def test_parse_poly_raises_only_syntax_errors(text):
    try:
        parse_poly(text, VarSet.of("b", "t"))
    except SpecSyntaxError:
        pass


@FUZZ
@given(
    text=inputs(POLY_PIECES),
    n=st.integers(-1, 2),
    fmt=st.sampled_from(("table", "json", "csv")),
    permissive=st.booleans(),
)
def test_brackets_keeps_the_exit_code_contract(text, n, fmt, permissive):
    argv = ["brackets", "--n", str(n), "--format", fmt]
    if permissive:
        argv.append("--permissive")
    code, err = run(argv + ["--", text])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@FUZZ
@given(text=spec_texts(), n=st.integers(-1, 6), fmt=st.sampled_from(("table", "json", "csv")))
def test_gen_keeps_the_exit_code_contract(tmp_path_factory, text, n, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.spec"
    path.write_text(text, encoding="utf-8")
    code, err = run(["gen", "--spec", str(path), "--n", str(n), "--format", fmt])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err


@FUZZ
@given(
    command=st.sampled_from(("certify", "expand")),
    text=st.one_of(spec_texts(), parsed_spec_texts()),
    n=st.integers(-1, 4),
    fmt=st.sampled_from(("table", "json", "csv")),
)
def test_certify_and_expand_keep_the_exit_code_contract(tmp_path_factory, command, text, n, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "fuzz.spec"
    path.write_text(text, encoding="utf-8")
    code, err = run([command, "--spec", str(path), "--n", str(n), "--format", fmt])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
