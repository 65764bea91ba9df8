"""Fuzz of the command line: every input ends in a result (exit 0 or 1) or
in exit 2 with one `error:` line, never in a traceback.

Sizes are drawn either small enough to build in milliseconds or far past
every work budget, so each example ends quickly either way.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from apfree.cli import main

RATIONALS = st.sampled_from(["1/12", "1/4", "1/24", "1/8", "0", "1", "5/4", "-1/12", "1/0",
                             "abc", "1/99991"])


def small_or_huge(lo, hi, *huge):
    return st.one_of(st.integers(lo, hi), st.sampled_from(huge))


def run_main(argv):
    """main(argv) with stdout and stderr captured: (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage error, and only that
            assert exc.code == 2, exc.code
            code = None
    return code, out.getvalue(), err.getvalue()


def assert_clean_exit(argv):
    code, out, err = run_main(argv)
    assert code in (None, 0, 1, 2), (argv, code)
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)


# the moduli, p/n and N of each kind
KIND_SIZES = {
    "zm": st.one_of(
        st.lists(st.integers(2, 8), min_size=1, max_size=4),
        st.lists(st.integers(-1, 8), min_size=0, max_size=4),
        st.sampled_from([[10**6] * 4, [10**6, 10**6, 10**6], [10**9, 5]]),
    ).map(lambda ms: ["--moduli", ",".join(map(str, ms))]),
    "fpn": st.tuples(small_or_huge(-1, 7, 10**6, 10**9), small_or_huge(0, 4, 10**6))
    .map(lambda pn: ["--p", str(pn[0]), "--n", str(pn[1])]),
    "int": small_or_huge(-5, 3000, 10**12, 10**30).map(lambda N: ["--N", str(N)]),
    "int-direct": small_or_huge(-5, 1500, 10**12, 10**30).map(lambda N: ["--N", str(N)]),
    "behrend": small_or_huge(-5, 10**4, 10**12, 10**30).map(lambda N: ["--N", str(N)]),
    "halfbox": st.tuples(small_or_huge(-1, 9, 101, 1000001), small_or_huge(0, 4, 6, 10**9))
    .map(lambda pn: ["--p", str(pn[0]), "--n", str(pn[1])]),
}
# optional construct flags, each given or not
OPTIONAL_FLAGS = {
    "--epsilon": RATIONALS,
    "--delta": RATIONALS,
    "--trials": small_or_huge(-1, 3, 10**9),
    "--seed": st.integers(-3, 3),
    "--shift": st.sampled_from(["0,0", "1/7,1/7,1/7,1/7", "1/3", "x,y", "0,0,0,0,0,0"]),
    "--slice-j": small_or_huge(-1, 3, 10**12),
    "--n-override": st.integers(-2, 8),
    "--b-trials": st.integers(-1, 3),
}


@st.composite
def construct_argv(draw):
    kind = draw(st.sampled_from(sorted(KIND_SIZES)))
    argv = ["construct", kind]
    if draw(st.integers(0, 9)):  # now and then a required flag is missing
        argv += draw(KIND_SIZES[kind])
    for flag, values in OPTIONAL_FLAGS.items():
        if draw(st.integers(0, 5)) == 0:
            argv += [flag, str(draw(values))]
    return argv


check_argv = st.builds(
    lambda props, eps, q, threads: ["--threads", str(threads), "check", props, "--epsilon", eps,
                                    "--Q", str(q)],
    st.sampled_from(["all", "block", "midpoint", "x1z1", "facts", "bogus"]),
    RATIONALS,
    st.sampled_from([24, 48, 0, -24, 50, 999984, 10**12]),
    st.integers(0, 2),
)
density_argv = st.builds(
    lambda eps, m: ["density", "--epsilon", eps, "--m", str(m)],
    RATIONALS,
    small_or_huge(-1, 300, 8193, 83328, 10**9),
)


class TestFuzzMain:
    @given(st.one_of(construct_argv(), check_argv, density_argv))
    @settings(max_examples=150, deadline=None)
    def test_commands_exit_cleanly(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            if argv[0] == "construct":
                argv = argv + ["--outdir", tmp]
            assert_clean_exit(argv)


LINE = st.one_of(
    st.integers(-3, 12).map(str),
    st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(lambda r: f"{r[0]},{r[1]}"),
    st.sampled_from(["", "x", "1.5", "1e3", str(10**30), "-0", "1,,2", "0,0,0", "9" * 400]),
)
SIDECAR = st.one_of(
    st.fixed_dictionaries({
        "kind": st.just("integer"),
        "bound": st.one_of(st.integers(-2, 20), st.sampled_from([10**30, 2.5, True, None, "7"])),
    }),
    st.fixed_dictionaries({
        "kind": st.just("group"),
        "moduli": st.one_of(st.lists(st.integers(-1, 7), max_size=3),
                            st.sampled_from([[10**30, 3], [2.5], None, 7, [4] * 24])),
    }),
    st.fixed_dictionaries({"kind": st.sampled_from(["other", 5, None])}),
).map(json.dumps) | st.sampled_from(["", "{", "null", "[]", "7", '{"kind": "group"}'])


@st.composite
def set_files(draw):
    """(lines, sidecar): a well-formed set, which passes or fails, with at
    most one element out of range; or lines and a sidecar drawn apart."""
    if draw(st.booleans()):
        return draw(st.lists(LINE, max_size=12)), draw(SIDECAR)
    if draw(st.booleans()):
        bound = draw(st.integers(1, 30))
        elements = draw(st.sets(st.integers(1, bound), max_size=12))
        if draw(st.integers(0, 3)) == 0:
            elements.add(draw(st.sampled_from([0, -1, bound + 1])))
        return [str(x) for x in elements], json.dumps({"kind": "integer", "bound": bound})
    moduli = draw(st.lists(st.integers(2, 7), min_size=1, max_size=3))
    elements = draw(st.sets(st.tuples(*(st.integers(0, m - 1) for m in moduli)), max_size=12))
    if draw(st.integers(0, 3)) == 0:
        elements.add(tuple(moduli))
    return ([",".join(map(str, e)) for e in elements],
            json.dumps({"kind": "group", "moduli": moduli}))


class TestFuzzVerify:
    @given(set_files(), st.booleans(), st.integers(0, 9).map(lambda k: k == 0))
    @settings(max_examples=150, deadline=None)
    def test_malformed_files_exit_cleanly(self, files, listing, binary):
        lines, sidecar = files
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.set"
            path.write_text("".join(line + "\n" for line in lines))
            if binary:
                path.write_bytes(b"\xff\xfe" + path.read_bytes())
            Path(tmp, "s.json").write_text(sidecar)
            assert_clean_exit(["verify", "--set", str(path)] + (["--all"] if listing else []))
