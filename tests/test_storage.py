"""Set files and their sidecars: write, read back, re-verify; the JSON
writer against the stdlib encoder."""

import functools
import json
import os
import random
import tempfile
import tracemalloc
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apfree import storage, verify
from apfree.cli import main
from apfree.dsets import DiscreteSet
from apfree.storage import dump_json, read_set, write_set
from apfree.verify import verify_group_set, verify_integer_set
from oracle import loop_group_progressions, loop_integer_progressions

provenance = st.fixed_dictionaries({"construction": st.sampled_from(["test", "random"]),
                                    "seed": st.integers(0, 99)})

group_sets = st.lists(st.integers(1, 9), min_size=1, max_size=4).flatmap(
    lambda moduli: st.builds(
        DiscreteSet, kind=st.just("group"), moduli=st.just(tuple(moduli)),
        elements=st.sets(st.tuples(*(st.integers(0, m - 1) for m in moduli)),
                         max_size=20).map(tuple),
        provenance=provenance,
    )
)

# bounds up to 2^70 take the verifier past int64 as well
integer_sets = st.integers(1, 2**70).flatmap(
    lambda bound: st.builds(
        DiscreteSet, kind=st.just("integer"), bound=st.just(bound),
        elements=st.sets(st.integers(1, bound), max_size=30).map(tuple),
        provenance=provenance,
    )
)


@given(st.one_of(group_sets, integer_sets), st.booleans())
@settings(max_examples=80, deadline=None)
def test_write_read_round_trip(dset, certify):
    report = dset.verify() if certify else None
    with tempfile.TemporaryDirectory() as tmp:
        first = write_set(dset, Path(tmp) / "first", "s", report)
        back = read_set(first["set"])
        assert (back.kind, back.elements, back.moduli, back.bound, back.provenance) == (
            dset.kind, dset.elements, dset.moduli, dset.bound, dset.provenance)
        again = back.verify()
        assert again.to_jsonable() == dset.verify().to_jsonable()
        second = write_set(back, Path(tmp) / "second", "s", again if certify else None)
        assert first.keys() == second.keys()
        for key, path in first.items():
            assert path.read_bytes() == second[key].read_bytes(), key


# the set written last, and sets whose files are longer, shorter or of the
# other kind, written first under the same name
_NEW = DiscreteSet(kind="group", moduli=(5, 5), elements=((0, 1), (2, 3), (4, 0)),
                   provenance={"construction": "test", "seed": 3})
_OLD = {
    "longer": DiscreteSet(kind="group", moduli=(5, 5, 5),
                          elements=tuple(product(range(5), range(5), (0,))),
                          provenance={"construction": "random", "seed": 123456, "note": "x" * 400}),
    "shorter": DiscreteSet(kind="group", moduli=(5, 5), elements=((1, 1),), provenance={}),
    "other kind": DiscreteSet(kind="integer", bound=10**6, elements=tuple(range(1, 300, 7)),
                              provenance={"construction": "random"}),
}


def _written(outdir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(outdir.iterdir())}


@pytest.mark.parametrize("old", list(_OLD))
@pytest.mark.parametrize("old_report, new_report", [(True, True), (False, True), (True, False)])
def test_write_over_existing_files_is_a_fresh_write(tmp_path, old, old_report, new_report):
    """write_set over the files of another set of the same name leaves
    exactly the files, and the bytes, of a write into an empty directory:
    no old tail after a shorter text, and no report beside a set written
    without one."""
    report = _NEW.verify() if new_report else None
    write_set(_NEW, tmp_path / "fresh", "s", report)
    earlier = _OLD[old]
    write_set(earlier, tmp_path / "over", "s", earlier.verify() if old_report else None)
    write_set(_NEW, tmp_path / "over", "s", report)
    assert _written(tmp_path / "over") == _written(tmp_path / "fresh")


def test_write_replaces_symlinks_and_leaves_their_targets(tmp_path):
    """An output path that is a symlink, dangling or not, is replaced by a
    regular file: the link's target keeps its bytes, and a dangling link's
    target is not created."""
    write_set(_NEW, tmp_path / "fresh", "s", _NEW.verify())
    target, outdir = tmp_path / "target.txt", tmp_path / "over"
    target.write_text("kept\n")
    outdir.mkdir()
    (outdir / "s.set").symlink_to(target)
    (outdir / "s.json").symlink_to(target)
    (outdir / "s.report.json").symlink_to(tmp_path / "missing.txt")
    paths = write_set(_NEW, outdir, "s", _NEW.verify())
    assert not any(path.is_symlink() for path in paths.values())
    assert all(path.is_file() for path in paths.values())
    assert _written(outdir) == _written(tmp_path / "fresh")
    assert target.read_text() == "kept\n" and not (tmp_path / "missing.txt").exists()


def test_write_leaves_special_files_in_place(tmp_path):
    """Only a regular file, a symlink to one or a dangling symlink is
    replaced: a set path that links to the null device is written through,
    and a FIFO at the report path of an uncertified write stays."""
    (tmp_path / "s.set").symlink_to(os.devnull)
    os.mkfifo(tmp_path / "s.report.json")
    write_set(_NEW, tmp_path, "s")
    assert (tmp_path / "s.set").is_symlink() and Path(os.devnull).is_char_device()
    assert (tmp_path / "s.report.json").is_fifo()
    assert (tmp_path / "s.json").is_file()


def stdlib(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# keys such as "10" and "9" must keep string order, escapes and non-ASCII too
keys = st.one_of(st.sampled_from(["x", "y", "z", "10", "9", "%d", "a\"b", "\u00e9", ""]),
                 st.text(max_size=4))
leaves = st.one_of(st.integers(), st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=6))
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30,
)


@st.composite
def dict_lists(draw):
    """Lists of dicts of one shape, as progression lists are, and near misses."""
    names = draw(st.lists(keys, min_size=1, max_size=4, unique=True))
    shape = {k: draw(st.sampled_from([None, 1, 2, 4])) for k in names}
    count = draw(st.integers(1, 6))
    ints = st.integers(-(2**70), 2**70)

    def item():
        return {k: draw(ints) if n is None else draw(st.lists(ints, min_size=n, max_size=n))
                for k, n in shape.items()}

    items = [item() for _ in range(count)]
    where = draw(st.integers(0, count - 1))
    key = draw(st.sampled_from(names))
    change = draw(st.sampled_from(["none", "length", "bool", "order", "tuple", "empty", "extra"]))
    if change == "length":
        value = items[where][key]
        items[where][key] = value + [0] if isinstance(value, list) else [value]
    elif change == "bool":
        value = items[where][key]
        if isinstance(value, list):
            value[0] = draw(st.booleans())
        else:
            items[where][key] = draw(st.booleans())
    elif change == "order":
        items[where] = dict(reversed(items[where].items()))
    elif change == "tuple" and isinstance(items[where][key], list):
        items[where][key] = tuple(items[where][key])
    elif change == "empty":
        items[where][key] = []
    elif change == "extra":
        items[where]["extra"] = 1
    return items


@given(st.one_of(documents, dict_lists(), st.dictionaries(keys, dict_lists(), max_size=2)))
@settings(max_examples=300, deadline=None)
def test_dump_json_matches_stdlib(obj):
    assert dump_json(obj) == stdlib(obj)


@pytest.mark.parametrize("obj", [
    [1, True], [True, False, None], [0, -1, 2**100], [[]], [{}], {"a": []}, {"a": {}},
    {"a": [{}, {}]}, [[[], {}], {"b": [[]]}], (1, (2, 3)), {"10": 1, "9": 2, "": 3},
    ["\x00\n\"\\", "\u00e9\u4e2d\U0001f600"], [{"x": 1}],
    [{"x": [1, 2], "y": 3}, {"y": 4, "x": [5, 6]}], [{"x": [1, 2]}, {"x": [3]}],
    [{"x": 1}, {"x": True}], [{"x": [1]}, {"x": [False]}], [{"x": 1}, {"y": 1}],
    [{"x": [1]}, {"x": (2,)}], [{"%s": 1}, {"%s": 2}], [{"x": []}, {"x": []}],
])
def test_dump_json_edge_cases(obj):
    assert dump_json(obj) == stdlib(obj)


circular = []
circular.append(circular)
deep = []
for _ in range(3000):
    deep = [deep]


@pytest.mark.parametrize("obj", [
    1.5, [1, 0.5], {"a": float("nan")}, [float("inf"), -float("inf")], {1: 2}, {"a": {2: 3}},
    {1: 1, "1": 2}, [{"x": 1, 2: 3}, {"x": 1, 2: 3}], np.int64(3), [np.int64(3)],
    [{"x": np.int64(1)}, {"x": np.int64(2)}], {"a": {1, 2}}, circular, deep, 2**20000,
], ids=lambda obj: type(obj).__name__)
def test_dump_json_leaves_the_rest_to_stdlib(obj):
    """What apfree never writes is refused, not handed to the stdlib: a
    float, a non-str key, a numpy scalar or a set raises TypeError, as the
    stdlib does for a type it cannot write; a cycle or nesting past the
    recursion limit raises RecursionError, and an int past the str
    conversion limit the ValueError of int.__repr__."""
    if obj is circular or obj is deep:
        refusal = RecursionError
    elif type(obj) is int:
        refusal = ValueError
    else:
        refusal = TypeError
    with pytest.raises(refusal):
        dump_json(obj)


def lines(text: str) -> list[str]:
    # a failed comparison of line lists names the first differing line,
    # where pytest would diff two long strings line by line
    return text.split("\n")


def verify_all_stdout(dset, tmp_path, capsys) -> str:
    paths = write_set(dset, tmp_path, "s", None)
    assert main(["verify", "--set", str(paths["set"]), "--all"]) == 1
    return capsys.readouterr().out


def test_verify_all_report_is_stdlib_bytes(tmp_path, capsys):
    """``verify --all`` on 300 random elements of Z_9^4: its stdout is the
    stdlib's bytes for what it parses to, and it lists what the report's
    list and the loop oracle list."""
    rng = random.Random(11)
    elements = set()
    while len(elements) < 300:
        elements.add(tuple(rng.randrange(9) for _ in range(4)))
    dset = DiscreteSet(kind="group", moduli=(9,) * 4, elements=tuple(elements),
                       provenance={"construction": "random"})
    out = verify_all_stdout(dset, tmp_path, capsys)
    assert lines(out) == lines(stdlib(json.loads(out)))
    listed = json.loads(out)["counts"]["all_counterexamples"]
    report = dset.verify(all_counterexamples=True)
    assert listed == list(report.counts["all_counterexamples"])
    assert listed == loop_group_progressions((9,) * 4, elements)
    assert len(listed) > 1000


def test_verify_all_integer_report_is_stdlib_bytes(tmp_path, capsys):
    """The same for 400 random integers in 1..20000."""
    elements = random.Random(11).sample(range(1, 20001), 400)
    dset = DiscreteSet(kind="integer", bound=20000, elements=tuple(elements),
                       provenance={"construction": "random"})
    out = verify_all_stdout(dset, tmp_path, capsys)
    assert lines(out) == lines(stdlib(json.loads(out)))
    listed = json.loads(out)["counts"]["all_counterexamples"]
    report = dset.verify(all_counterexamples=True)
    assert listed == list(report.counts["all_counterexamples"])
    assert listed == loop_integer_progressions(elements)
    assert len(listed) > 500


def materialised(report) -> dict:
    """The report's JSON document with its progression list as a plain list."""
    doc = report.to_jsonable()
    if "all_counterexamples" in doc["counts"]:
        doc["counts"] = {**doc["counts"],
                         "all_counterexamples": list(doc["counts"]["all_counterexamples"])}
    return doc


@st.composite
def listed_sets(draw):
    """(verifier, universe, elements, oracle list): random elements plus
    planted progressions x, x + d, x + 2d, in groups of 1-6 coordinates with
    odd, even or mixed moduli, small or past 2^62 (object arrays), and in
    {1..N}, N small or past 2^62."""
    planted = draw(st.integers(0, 3))
    if draw(st.booleans()):
        parity = draw(st.sampled_from([0, 1, None]))
        sizes = draw(st.sampled_from([st.integers(1, 12), st.integers(1, 12),
                                      st.integers(2**61, 2**62)]))
        moduli = []
        for _ in range(draw(st.integers(1, 6))):
            m, want = draw(sizes), draw(st.integers(0, 1)) if parity is None else parity
            moduli.append(max(2, m - m % 2) if want == 0 else m | 1)
        point = st.tuples(*(st.integers(0, m - 1) for m in moduli))
        elements = set(draw(st.lists(point, max_size=30)))
        for _ in range(planted):
            x, d = draw(point), draw(point)
            elements |= {tuple((a + k * b) % m for a, b, m in zip(x, d, moduli))
                         for k in range(3)}
        return (verify_group_set, tuple(moduli), sorted(elements),
                loop_group_progressions(moduli, elements))
    bound = draw(st.one_of(st.integers(1, 200), st.integers(2**62, 2**70)))
    elements = set(draw(st.lists(st.integers(1, bound), max_size=20)))
    for _ in range(planted):
        x = draw(st.integers(1, bound))
        d = draw(st.integers(1, max(1, (bound - x) // 2)))
        elements |= {x + k * d for k in range(3) if x + k * d <= bound}
    return verify_integer_set, bound, sorted(elements), loop_integer_progressions(elements)


def listed_case(verify_set, universe, elements, loop):
    elements = sorted(elements)
    return verify_set, universe, elements, loop(elements)


# lists of many chunks, on int64 and on object arrays
_group_ap = [(5 + 3 * k, 2**61 - 7 * k) for k in range(7)]
_many_chunks = [
    (listed_case(verify_integer_set, 30, range(1, 31), loop_integer_progressions), 1),
    (listed_case(verify_integer_set, 2**70, [2**69 + 3 * k for k in range(8)],
                 loop_integer_progressions), 2),
    (listed_case(verify_group_set, (6, 5, 4), product(range(6), range(5), range(4)),
                 functools.partial(loop_group_progressions, (6, 5, 4))), 7),
    (listed_case(verify_group_set, (2**62 + 1, 2**62), _group_ap,
                 functools.partial(loop_group_progressions, (2**62 + 1, 2**62))), 1),
]


@given(listed_sets(), st.integers(1, 64))
@settings(max_examples=150, deadline=None)
@example(*_many_chunks[0])
@example(*_many_chunks[1])
@example(*_many_chunks[2])
@example(*_many_chunks[3])
def test_progression_lists_are_stdlib_bytes(case, chunk):
    """A report's progression list, kept as index rows in chunks of 1-64
    hits, is written as the stdlib writes the list it equals."""
    verify_set, universe, elements, expected = case
    with mock.patch.object(verify, "_CHUNK", chunk):
        report = verify_set(universe, elements, all_counterexamples=True)
    assert report.counts["all_counterexamples"] == expected
    assert lines(dump_json(report.to_jsonable())) == lines(stdlib(materialised(report)))


@pytest.mark.parametrize("step", [1, 2, 5, None])
def test_progression_lists_written_in_pieces(monkeypatch, step):
    """A list of more progressions than one piece holds, whole pieces and a
    shorter last one, or of exactly one piece's (step None), is written as
    the stdlib writes it."""
    for (verify_set, universe, elements, expected), _ in _many_chunks:
        monkeypatch.setattr(storage, "_STEP", step or len(expected))
        report = verify_set(universe, elements, all_counterexamples=True)
        assert len(expected) > (step or 1)
        assert dump_json(report.to_jsonable()) == stdlib(materialised(report))


def test_a_large_report_is_copied_once():
    """A verify --all report of more than 2 MB peaks at about twice its
    text, once in pieces and once joined; when each level of the document
    copied its value's text, it peaked near three times."""
    elements = random.Random(5).sample(range(1, 20001), 1300)
    doc = verify_integer_set(20000, elements, all_counterexamples=True).to_jsonable()
    tracemalloc.start()
    try:
        text = dump_json(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 2 * 10**6
    assert peak < 2.3 * len(text), peak / len(text)


@pytest.mark.parametrize("elements, listed", [
    ([1, 2, 4, 8], 0), ([1, 2, 3], 1), ([1, 2, 3, 5, 7, 9], 5),
])
def test_passing_and_short_progression_lists(elements, listed):
    report = verify_integer_set(9, elements, all_counterexamples=True)
    assert len(report.counts["all_counterexamples"]) == listed
    assert dump_json(report.to_jsonable()) == stdlib(materialised(report))
