"""Set files and their sidecars: write, read back, re-verify."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from apfree.dsets import DiscreteSet
from apfree.storage import read_set, write_set

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
