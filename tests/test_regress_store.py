"""Tests for the regression store (repro.regress.store)."""

import json
import tempfile

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.fuzz import Divergence, OracleConfig, run_oracles
from repro.regress import (
    BUNDLE_KINDS,
    BUNDLE_SCHEMA,
    RegressionBundle,
    RegressionStore,
    UnknownBundle,
    UnreadableBundle,
    bundle_from_divergence,
    bundle_from_observation,
    current_versions,
    triage_label,
)

#: A source that diverges static-only under stdin (8,): the detector
#: flags the tainted count, but this concrete run stays in bounds.
DIVERGING = (
    "char pool[64];\n"
    "void run() {\n"
    "  int n = 0;\n"
    "  cin >> n;\n"
    "  char* p = new (pool) char[n];\n"
    "}\n"
)

AGREEING = "void run() { int x = 1; }\n"


def make_bundle(source=DIVERGING, stdin=(8,), triage="", **kwargs):
    config = OracleConfig()
    observation = run_oracles(source, stdin, config)
    bundle = bundle_from_observation(
        source, stdin, config, observation, triage=triage
    )
    for name, value in kwargs.items():
        setattr(bundle, name, value)
    return bundle


class TestVersionsAndLabels:
    def test_current_versions_keys(self):
        versions = current_versions()
        assert set(versions) == {
            "detector",
            "legacy_rules",
            "event_vocabulary",
            "triage_rules",
        }
        assert all(isinstance(v, str) and v for v in versions.values())

    def test_current_versions_stable(self):
        assert current_versions() == current_versions()

    def test_triage_label(self):
        assert triage_label("taint-quantifier: concrete run in bounds") == (
            "taint-quantifier"
        )
        assert triage_label("manual: reviewed") == "manual"
        assert triage_label("") == ""


class TestBundle:
    def test_roundtrip(self):
        bundle = make_bundle(family="f", meta={"seed": 3})
        restored = RegressionBundle.from_json(bundle.to_json())
        assert restored.to_json() == bundle.to_json()
        assert restored.bundle_id == bundle.bundle_id

    def test_id_covers_replay_inputs_only(self):
        bundle = make_bundle()
        base = bundle.bundle_id
        # Expectations and triage never move the address...
        bundle.triage = "manual: looked fine"
        bundle.expected_kind = "agree"
        bundle.family = "renamed"
        assert bundle.bundle_id == base
        # ...but every replay input does.
        for change in (
            {"stdin": (9,)},
            {"step_budget": 123},
            {"canary": False},
            {"source": bundle.source + "\n"},
        ):
            other = make_bundle()
            for name, value in change.items():
                setattr(other, name, value)
            assert other.bundle_id != base, change

    def test_expected_kind_captures_oracle_outcome(self):
        assert make_bundle().expected_kind == "static-only"
        assert make_bundle(source=AGREEING, stdin=()).expected_kind == "agree"
        invalid = make_bundle(source="@@ not a program", stdin=())
        assert invalid.expected_kind == "invalid"

    def test_status(self):
        assert make_bundle(source=AGREEING, stdin=()).status == "agree"
        # A fresh divergence pins its auto-triage class at record time —
        # otherwise it would drift on its very first replay.
        auto = make_bundle()
        assert auto.status == "known-benign"
        assert triage_label(auto.triage) == "taint-quantifier"
        assert make_bundle(triage="").status == "known-benign"
        assert make_bundle(triage="manual: ok").status == "known-benign"
        untriaged = make_bundle()
        untriaged.triage = ""
        assert untriaged.status == "open"

    def test_from_dict_rejects_bad_schema_and_kind(self):
        data = json.loads(make_bundle().to_json())
        bad_schema = dict(data, schema=BUNDLE_SCHEMA + 1)
        with pytest.raises(ValueError, match="schema"):
            RegressionBundle.from_dict(bad_schema)
        bad_kind = json.loads(make_bundle().to_json())
        bad_kind["expected"]["kind"] = "sideways"
        with pytest.raises(ValueError, match="kind"):
            RegressionBundle.from_dict(bad_kind)
        assert "sideways" not in BUNDLE_KINDS

    @pytest.mark.parametrize(
        "document, reason",
        [
            ([], "JSON object"),
            ("bundle", "JSON object"),
            (None, "JSON object"),
            ({"schema": BUNDLE_SCHEMA}, "missing key 'source'"),
            ({"schema": BUNDLE_SCHEMA, "source": 7}, "'source' must be a string"),
            ({"schema": BUNDLE_SCHEMA, "source": "", "config": []}, "'config' must be an object"),
            ({"schema": BUNDLE_SCHEMA, "source": "", "stdin": [{}]}, "'stdin' tokens"),
        ],
    )
    def test_from_dict_rejects_what_is_not_a_bundle(self, document, reason):
        with pytest.raises(ValueError, match=reason):
            RegressionBundle.from_dict(document)

    def test_bundle_from_divergence_prefers_minimized(self):
        div = Divergence(
            fingerprint="abc",
            kind="static-only",
            static_rules=("PN-TAINTED-COUNT",),
            dynamic_events=(),
            family="f",
            entry="run",
            source=DIVERGING + "// big original\n",
            stdin=(8, 9),
            minimized_source=DIVERGING,
            minimized_stdin=(8,),
        )
        bundle = bundle_from_divergence(div, OracleConfig())
        assert bundle.source == DIVERGING
        assert bundle.stdin == (8,)


class TestStore:
    def test_record_dispositions(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        bundle = make_bundle()
        bundle_id, disposition = store.record(bundle)
        assert disposition == "created"
        assert store.record(bundle) == (bundle_id, "unchanged")
        # Same input, different expectations: the recorded baseline wins
        # over an auto-recorder...
        moved = make_bundle(triage="manual: reviewed")
        assert store.record(moved) == (bundle_id, "kept")
        assert store.load(bundle_id).triage == bundle.triage
        # ...unless the writer explicitly overwrites (rebaseline).
        assert store.record(moved, overwrite=True) == (bundle_id, "updated")
        assert store.load(bundle_id).triage == "manual: reviewed"

    def test_listing_is_sorted_and_deduplicated(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        for stdin in ((8,), (9,), (8,)):  # (8,) recorded twice
            store.record(make_bundle(stdin=stdin))
        assert len(store) == 2
        assert store.ids() == sorted(store.ids())
        assert [b.bundle_id for b in store.bundles()] == store.ids()

    def test_load_of_an_unknown_id_names_it(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        with pytest.raises(UnknownBundle, match=r"^no bundle rb-nosuch in .*store$"):
            store.load("rb-nosuch")

    def test_record_is_atomic_and_leaves_no_tmp(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        bundle_id, _ = store.record(make_bundle())
        store.record(make_bundle(triage="manual: reviewed"), overwrite=True)
        assert list(store.directory.glob("*.tmp")) == []
        assert store.load(bundle_id).triage == "manual: reviewed"

    def test_interrupted_write_cannot_truncate_a_bundle(
        self, tmp_path, monkeypatch
    ):
        from pathlib import Path

        store = RegressionStore(tmp_path / "store")
        bundle_id, _ = store.record(make_bundle())
        original = store.load(bundle_id)

        real_write_text = Path.write_text

        def crashing_write_text(self, text, *args, **kwargs):
            # A crash mid-write: half the document lands, then the
            # process dies before the atomic rename.
            real_write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError("simulated crash mid-write")

        monkeypatch.setattr(Path, "write_text", crashing_write_text)
        moved = make_bundle(triage="manual: reviewed")
        with pytest.raises(OSError, match="simulated crash"):
            store.record(moved, overwrite=True)
        monkeypatch.undo()
        # The published bundle is byte-for-byte untouched...
        assert store.load(bundle_id).to_json() == original.to_json()
        # ...and gc reaps the orphaned partial write, not the bundle.
        swept = store.gc()
        assert store.ids() == [bundle_id]
        assert all(
            reason == "orphaned partial write"
            for reason in swept["removed"].values()
        )

    def test_gc_sweeps_orphaned_tmp_files(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        keep_id, _ = store.record(make_bundle())
        (store.directory / "rb-feed.json.1a2b.3c4d.tmp").write_text("{par")
        dry = store.gc(dry_run=True)
        assert dry["removed"] == {
            "rb-feed.json.1a2b.3c4d.tmp": "orphaned partial write"
        }
        assert (store.directory / "rb-feed.json.1a2b.3c4d.tmp").is_file()
        store.gc()
        assert not (store.directory / "rb-feed.json.1a2b.3c4d.tmp").exists()
        assert store.ids() == [keep_id]

    def test_gc_sweeps_corrupt_and_renamed(self, tmp_path):
        store = RegressionStore(tmp_path / "store")
        keep_id, _ = store.record(make_bundle())
        corrupt_id, _ = store.record(make_bundle(stdin=(9,)))
        rename_id, _ = store.record(make_bundle(stdin=(10,)))
        with open(store.path_for(corrupt_id), "a") as handle:
            handle.write("garbage")
        store.path_for(rename_id).rename(
            store.directory / "rb-deadbeefdeadbeefdead.json"
        )
        dry = store.gc(dry_run=True)
        assert dry["scanned"] == 3 and dry["kept"] == 1
        assert len(dry["removed"]) == 2
        assert len(store) == 3  # dry run touches nothing

        swept = store.gc()
        assert set(swept["removed"]) == set(dry["removed"])
        assert store.ids() == [keep_id]


#: Any JSON value (NaN aside: it never round-trips as equal).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


@st.composite
def bundle_documents(draw):
    """A valid bundle document with up to three members dropped or
    replaced by arbitrary JSON (the top level, config or expected)."""
    document = json.loads(RegressionBundle(source=AGREEING, stdin=(1, "x")).to_json())
    sections = [document, document["config"], document["expected"]]
    for _ in range(draw(st.integers(0, 3))):
        section = draw(st.sampled_from(sections))
        key = draw(st.sampled_from(sorted(section) or ["schema"]))
        if draw(st.booleans()):
            section.pop(key, None)
        else:
            section[key] = draw(JSON_VALUES)
    return document


class TestMalformedBundles:
    """Loading never fails with anything but ValueError, and gc sorts
    every file into kept or removed."""

    @given(st.one_of(JSON_VALUES, bundle_documents()))
    def test_from_json_returns_a_bundle_or_raises_value_error(self, document):
        try:
            bundle = RegressionBundle.from_json(json.dumps(document))
        except ValueError:
            return
        assert RegressionBundle.from_json(bundle.to_json()) == bundle
        assert bundle.bundle_id.startswith("rb-")

    @given(
        st.lists(
            st.one_of(
                st.binary(max_size=64),
                st.builds(lambda doc: json.dumps(doc).encode(), bundle_documents()),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_gc_dry_run_classifies_every_file(self, contents):
        with tempfile.TemporaryDirectory() as directory:
            store = RegressionStore(directory)
            for index, data in enumerate(contents):
                store.path_for(f"rb-{index:020d}").write_bytes(data)
            for bundle_id in store.ids():
                try:
                    store.load(bundle_id)
                except UnreadableBundle as error:
                    assert str(store.path_for(bundle_id)) in str(error)
            outcome = store.gc(dry_run=True)
            assert outcome["scanned"] == len(contents)
            assert outcome["kept"] + len(outcome["removed"]) == len(contents)
            assert len(store.ids()) == len(contents)  # a dry run removes nothing
