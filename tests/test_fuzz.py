"""Fuzz of the expression grammar through the CLI.

Random token strings built from the grammar in `classinv.expr` (numbers,
fractions, x[...] and u[...] variables, contraction shorthands, sums,
products, powers with huge exponents, nesting), some of them mutated into
malformed input, go through `check` on small sessions.  Whatever the
string, the command must end with one of the documented exit codes: 0
(invariant), 2 (not invariant) or 1 (an error reported on stderr).  A
small `--dim-cap` keeps every accepted expression cheap to expand.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from classinv.cli import main

SESSIONS = [
    ("o", "--n", "2", "--vectors", "2"),
    ("o", "--n", "1", "--vectors", "2"),
    ("sp", "--n", "2", "--vectors", "2"),
    ("gl", "--n", "2", "--covectors", "2", "--vectors", "2"),
]
SHORTHAND = {"o": "s", "sp": "w", "gl": "c"}

# mostly valid 1-based indices, sometimes out of range
index = st.sampled_from(["1", "2"] * 4 + ["0", "3"])
exponent = st.one_of(st.integers(0, 6), st.integers(0, 10**12), st.just(-1)).map(str)
ops = st.sampled_from(["+", "-", "*", " * ", "+-"])
noise = "xucsw0123456789[](),+-*^/ .#"


def _compound(children):
    return st.one_of(
        st.builds("{}{}{}".format, children, ops, children),
        st.builds("({})^{}".format, children, exponent),
        st.builds("{}^{}".format, children, exponent),
        st.builds("-{}".format, children),
        st.builds("({})".format, children),
    )


@st.composite
def session_and_expression(draw):
    session = draw(st.sampled_from(SESSIONS))
    variable = st.builds("{}[{},{}]".format, st.sampled_from("xxxu"), index, index)
    atom = st.one_of(
        variable,
        st.integers(0, 10**30).map(str),
        st.builds("{}/{}".format, st.integers(0, 99), st.integers(0, 9)),
        variable,
        st.builds("{}({},{})".format, st.just(SHORTHAND[session[0]]), index, index),
        st.builds("{}({},{})".format, st.sampled_from("csw"), index, index),
    )
    text = draw(st.recursive(atom, _compound, max_leaves=8))
    kind = draw(st.sampled_from(["well-formed", "well-formed", "mutated", "noise"]))
    if kind == "noise":
        text = draw(st.text(alphabet=noise, max_size=20))
    elif kind == "mutated":
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(st.sampled_from(noise)) + text[at:]
    return ("--group", *session), text


@settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=session_and_expression(), cap=st.sampled_from(["40", "400"]))
def test_check_exits_with_a_documented_code(case, cap):
    session, expr = case
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["check", *session, "--dim-cap", cap, f"--expr={expr}"])
    assert code in (0, 1, 2)
    assert (code == 1) == err.getvalue().startswith("error:")
