"""Set files and their sidecars: write, read back, re-verify; the JSON
writer against the stdlib encoder."""

import json
import random
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apfree.cli import main
from apfree.dsets import DiscreteSet
from apfree.storage import dump_json, read_set, write_set

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
    """Lists of dicts of one shape (the template path), and near misses."""
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


def _outcome(fn, obj):
    try:
        return fn(obj)
    except Exception as exc:  # the type is what both sides must agree on
        return type(exc)


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
    """Floats, non-str keys, numpy scalars and the like give the stdlib's
    bytes, or an exception of the stdlib's type."""
    assert _outcome(dump_json, obj) == _outcome(stdlib, obj)


def test_verify_all_report_is_stdlib_bytes(tmp_path, capsys):
    rng = random.Random(11)
    elements = set()
    while len(elements) < 300:
        elements.add(tuple(rng.randrange(9) for _ in range(4)))
    dset = DiscreteSet(kind="group", moduli=(9,) * 4, elements=tuple(elements),
                       provenance={"construction": "random"})
    paths = write_set(dset, tmp_path, "rgrp", None)
    assert main(["verify", "--set", str(paths["set"]), "--all"]) == 1
    out = capsys.readouterr().out
    report = dset.verify(all_counterexamples=True).to_jsonable()
    assert len(report["counts"]["all_counterexamples"]) > 1000
    assert out == stdlib(report)
