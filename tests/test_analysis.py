import io
import random
from collections import Counter
from dataclasses import replace
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_analysis as ref

from ocedf import (
    AttributeDef,
    AttributeValue,
    EventInstance,
    EventTypeDef,
    FlatLog,
    FlatRow,
    ObjectInstance,
    ObjectTypeDef,
    OcedLog,
    SchemaError,
    discover_dfg,
    drill_down,
    filter_log,
    flatten,
    read_ocel_json,
    roll_up,
    stats,
    to_dot,
    unfold_events,
    write_ocel_json,
)
from randlog import QUALIFIERS, random_log

T0 = datetime(2024, 9, 2, 10, 0, 0, tzinfo=timezone.utc)


def user_page_log():
    log = OcedLog(
        [ObjectTypeDef("User", (AttributeDef("role", "string"), AttributeDef("name", "string"))),
         ObjectTypeDef("Page", (AttributeDef("code", "string"),))],
        [EventTypeDef("view page"), EventTypeDef("submit assignment")],
    )
    for oid, role in [("u1", "Student"), ("u2", "Student"), ("u3", "Teacher")]:
        log.add_object(ObjectInstance(oid, "User", (AttributeValue("role", T0, role),)))
    for oid, code in [("p1", "A1P1"), ("p2", "A1P2")]:
        log.add_object(ObjectInstance(oid, "Page", (AttributeValue("code", T0, code),)))
    return log


def at(minutes):
    return T0 + timedelta(minutes=minutes)


class TestFilter:
    def test_keep_all_is_identity(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", T0))
        log.relate_event_object("e1", "u1")
        assert filter_log(log).structurally_equal(log)
        assert filter_log(log, None, None, None).structurally_equal(log)

    def test_event_type_filter(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", at(0)))
        log.add_event(EventInstance("e2", "submit assignment", at(1)))
        log.relate_event_object("e2", "u1")
        out = filter_log(log, keep_event_types={"submit assignment"})
        assert set(out.events) == {"e2"}
        assert out.has_e2o("e2", "u1")

    def test_object_type_filter_prunes_relations(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", at(0)))
        log.relate_event_object("e1", "u1")
        log.relate_event_object("e1", "p1")
        out = filter_log(log, keep_object_types={"Page"})
        assert set(o.id for o in out.objects.values()) == {"p1", "p2"}
        assert not out.has_e2o("e1", "u1")
        assert out.has_e2o("e1", "p1")

    def test_empty_event_set(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", at(0)))
        log.relate_event_object("e1", "u1")
        out = filter_log(log, keep_event_types=set())
        assert not out.events and not out.e2o
        assert len(out.objects) == len(log.objects)

    def test_time_window(self):
        log = user_page_log()
        for i in range(4):
            log.add_event(EventInstance(f"e{i}", "view page", at(i)))
        out = filter_log(log, time_window=(at(1), at(2)))
        assert set(out.events) == {"e1", "e2"}

    def test_naive_time_bounds_read_as_utc(self):
        log = user_page_log()
        for i in range(4):
            log.add_event(EventInstance(f"e{i}", "view page", at(i)))
        for window in [(at(1), at(2)), (at(1), None), (None, at(2))]:
            naive = tuple(None if t is None else t.replace(tzinfo=None) for t in window)
            assert set(filter_log(log, time_window=naive).events) == \
                set(filter_log(log, time_window=window).events), window

    def test_sub_millisecond_bound_is_not_truncated(self):
        log = user_page_log()
        for i in range(4):
            log.add_event(EventInstance(f"e{i}", "view page", at(i)))
        bound = at(1) + timedelta(microseconds=500)   # after e1, which is stored at whole ms
        for lo in (bound, bound.replace(tzinfo=None)):
            assert set(filter_log(log, time_window=(lo, None)).events) == {"e2", "e3"}
        assert set(filter_log(log, time_window=(None, bound.replace(tzinfo=None))).events) == \
            {"e0", "e1"}

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown event type"):
            filter_log(user_page_log(), keep_event_types={"ghost"})

    def test_idempotent(self):
        log = user_page_log()
        for i in range(4):
            log.add_event(EventInstance(f"e{i}", "view page", at(i)))
            log.relate_event_object(f"e{i}", "u1")
        once = filter_log(log, keep_event_types={"view page"}, time_window=(at(1), None))
        twice = filter_log(once, keep_event_types={"view page"}, time_window=(at(1), None))
        assert once.structurally_equal(twice)


class TestFlatten:
    def test_event_with_two_students_appears_in_two_cases(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "submit assignment", at(0)))
        log.relate_event_object("e1", "u1")
        log.relate_event_object("e1", "u2")
        flat = flatten(log, "User")
        assert [(r.case_id, r.event_id) for r in flat.rows] == [("u1", "e1"), ("u2", "e1")]

    def test_single_case_in_time_order(self):
        log = user_page_log()
        for i, eid in enumerate(["b", "a", "c"]):
            log.add_event(EventInstance(eid, "view page", at(10 - i)))
            log.relate_event_object(eid, "u1")
        flat = flatten(log, "User")
        assert [r.event_id for r in flat.rows] == ["c", "a", "b"]

    def test_row_count_matches_relation_count(self):
        log = random_log(random.Random(11), max_events=60, max_objects=30)
        for td in log.object_type_defs:
            pairs = {(r.event_id, r.object_id) for r in log.e2o
                     if log.objects[r.object_id].type == td.name}
            assert len(flatten(log, td.name).rows) == len(pairs)

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown object type"):
            flatten(user_page_log(), "Ghost")

    def test_unrelated_events_dropped(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", at(0)))
        assert flatten(log, "User").rows == ()

    def test_cases_share_the_stored_traces(self):
        log = random_log(random.Random(12), max_events=60, max_objects=30, with_user_hierarchy=True)
        traces = log._object_traces()
        for td in log.object_type_defs:
            flat = flatten(log, td.name)
            assert [case_id for case_id, _ in flat.cases] == sorted(
                oid for oid, obj in log.objects.items() if obj.type == td.name and oid in traces)
            assert all(trace is traces[case_id] for case_id, trace in flat.cases)

    def test_a_flat_log_keeps_its_rows_when_the_log_changes(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", at(0)))
        log.relate_event_object("e1", "u1")
        flat = flatten(log, "User")
        rows = flat.rows
        log.add_event(EventInstance("e2", "view page", at(-1)))
        log.relate_event_object("e2", "u1")
        log.relate_event_object("e1", "u2")
        assert flat.rows == rows == (FlatRow("u1", "view page", at(0), "e1"),)
        assert flatten(log, "User").rows != rows

    def test_equal_rows_give_equal_flat_logs(self):
        log = random_log(random.Random(13), max_events=60, max_objects=30)
        buf = io.StringIO()
        write_ocel_json(log, buf)
        back = read_ocel_json(io.StringIO(buf.getvalue()))
        for td in log.object_type_defs:
            assert flatten(back, td.name) == flatten(log, td.name)
        one = user_page_log()
        one.add_event(EventInstance("e1", "view page", at(0)))
        one.relate_event_object("e1", "u1")
        other = user_page_log()
        other.add_event(EventInstance("e1", "view page", at(0)))
        other.relate_event_object("e1", "u2")
        assert flatten(one, "User") != flatten(other, "User")
        assert flatten(one, "User") != flatten(one, "Page")

    def test_rows_given_stand_for_the_cases(self):
        log = random_log(random.Random(14), max_events=60, max_objects=30)
        for td in log.object_type_defs:
            flat = flatten(log, td.name)
            assert FlatLog(td.name, rows=flat.rows) == flat
            assert replace(flat, rows=flat.rows[1:]).rows == flat.rows[1:]


@given(seed=st.integers(min_value=0, max_value=10_000), hierarchy=st.booleans())
@settings(max_examples=60, deadline=None)
def test_flatten_matches_the_reference(seed, hierarchy):
    """Same rows in the same order as the row-per-entry ``flatten``, each
    row's event fields the stored event's own, and the same error."""
    log = random_log(random.Random(seed), max_events=120, max_objects=60,
                     with_user_hierarchy=hierarchy)
    for td in log.object_type_defs:
        rows = flatten(log, td.name).rows
        assert rows == ref.flatten(log, td.name)
        for row in rows:
            stored = log.events[row.event_id]
            assert type(row) is FlatRow
            assert row.activity is stored.type and row.time is stored.time
    for op in (flatten, ref.flatten):
        with pytest.raises(SchemaError, match="^unknown object type 'Ghost'$"):
            op(log, "Ghost")


class TestDrillDown:
    def test_splits_users_by_role(self):
        log = user_page_log()
        out = drill_down(log, "User", "role")
        assert {o.id: o.type for o in out.objects.values() if o.id.startswith("u")} == \
            {"u1": "Student", "u2": "Student", "u3": "Teacher"}
        names = [td.name for td in out.object_type_defs]
        assert "User" not in names
        assert {"Student", "Teacher"} <= set(names)

    def test_keeps_relations(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", at(0)))
        log.relate_event_object("e1", "u1", "viewer")
        log.relate_objects("u3", "u1", "teaches")
        out = drill_down(log, "User", "role")
        assert out.has_e2o("e1", "u1", "viewer")
        assert out.has_o2o("u3", "u1", "teaches")

    def test_supertype_with_zero_instances(self):
        log = OcedLog([ObjectTypeDef("User", (AttributeDef("role", "string"),)),
                       ObjectTypeDef("Page")], [])
        log.add_object(ObjectInstance("p1", "Page", ()))
        out = drill_down(log, "User", "role")
        assert [td.name for td in out.object_type_defs] == ["Page"]
        assert set(out.objects) == {"p1"}

    def test_missing_discriminator_value_goes_unknown(self):
        log = user_page_log()
        log.add_object(ObjectInstance("u4", "User", ()))
        out = drill_down(log, "User", "role")
        assert out.objects["u4"].type == "User:unknown"

    def test_no_discriminator_configured(self):
        log = OcedLog([ObjectTypeDef("Group")], [])
        with pytest.raises(SchemaError, match="discriminator"):
            drill_down(log, "Group", "role")

    def test_unknown_supertype(self):
        with pytest.raises(SchemaError, match="unknown object type"):
            drill_down(user_page_log(), "Ghost", "role")

    def test_label_colliding_with_differently_shaped_type(self):
        log = OcedLog([ObjectTypeDef("User", (AttributeDef("role", "string"),)),
                       ObjectTypeDef("Student", (AttributeDef("grade", "integer"),))], [])
        log.add_object(ObjectInstance("u1", "User", (AttributeValue("role", T0, "Student"),)))
        with pytest.raises(SchemaError, match="'Student' collides with a differently-shaped type"):
            drill_down(log, "User", "role")

    def test_uses_latest_discriminator_value(self):
        log = user_page_log()
        values = (AttributeValue("role", T0, "Student"),
                  AttributeValue("role", T0 + timedelta(days=30), "Teacher"))
        log.add_object(ObjectInstance("u5", "User", values))
        out = drill_down(log, "User", "role")
        assert out.objects["u5"].type == "Teacher"


class TestRollUp:
    def test_merges_under_supertype(self):
        log = user_page_log()
        drilled = drill_down(log, "User", "role")
        rolled = roll_up(drilled, {"Student", "Teacher"}, "User", "role")
        assert all(o.type == "User" for o in rolled.objects.values() if o.id.startswith("u"))
        assert rolled.objects["u3"].latest_value("role") == "Teacher"

    def test_inverse_of_drill_down(self):
        log = user_page_log()
        log.add_event(EventInstance("e1", "view page", at(0)))
        log.relate_event_object("e1", "u1")
        rolled = roll_up(drill_down(log, "User", "role"), {"Student", "Teacher"}, "User", "role")
        assert rolled.structurally_equal(log)

    def test_empty_label_set_is_identity(self):
        log = user_page_log()
        assert roll_up(log, set(), "User", "role").structurally_equal(log)

    def test_unknown_label(self):
        with pytest.raises(SchemaError, match="unknown object type label"):
            roll_up(user_page_log(), {"Ghost"}, "User", "role")

    def test_discriminator_collision(self):
        log = OcedLog([ObjectTypeDef("Teacher", (AttributeDef("role", "string"),))], [])
        log.add_object(ObjectInstance("t1", "Teacher", (AttributeValue("role", T0, "Student"),)))
        with pytest.raises(SchemaError, match="discriminator"):
            roll_up(log, {"Teacher"}, "User", "role")

    def test_into_existing_type_must_declare_the_subtype_attributes(self):
        log = OcedLog([ObjectTypeDef("User", (AttributeDef("role", "string"),)),
                       ObjectTypeDef("Student", (AttributeDef("role", "string"),
                                                 AttributeDef("name", "string")))], [])
        values = (AttributeValue("role", T0, "Student"), AttributeValue("name", T0, "Ada"))
        log.add_object(ObjectInstance("s1", "Student", values))
        with pytest.raises(SchemaError, match="attribute 'name' not declared on type 'User'"):
            roll_up(log, {"Student"}, "User", "role")

    def test_labels_without_discriminator_get_one(self):
        log = OcedLog([ObjectTypeDef("Teacher", (AttributeDef("name", "string"),))], [])
        log.add_object(ObjectInstance("t1", "Teacher", (AttributeValue("name", T0, "Bo"),)))
        rolled = roll_up(log, {"Teacher"}, "User", "role")
        assert rolled.objects["t1"].type == "User"
        assert rolled.objects["t1"].latest_value("role") == "Teacher"


class TestUnfold:
    def build(self):
        log = user_page_log()
        codes = {"p1": "A1P1", "p2": "A1P2"}
        for i, (pid, _) in enumerate(codes.items()):
            eid = f"e{i}"
            log.add_event(EventInstance(eid, "view page", at(i)))
            log.relate_event_object(eid, "u1")
            log.relate_event_object(eid, pid)
        return log

    def test_relabels_by_page_code(self):
        out = unfold_events(self.build(), "view page", "Page", "code")
        assert out.events["e0"].type == "view page A1P1"
        assert out.events["e1"].type == "view page A1P2"
        names = {td.name for td in out.event_type_defs}
        assert {"view page", "view page A1P1", "view page A1P2"} <= names

    def test_event_without_object_keeps_label(self):
        log = self.build()
        log.add_event(EventInstance("solo", "view page", at(9)))
        out = unfold_events(log, "view page", "Page", "code")
        assert out.events["solo"].type == "view page"

    def test_ambiguous_event_rejected(self):
        log = self.build()
        log.relate_event_object("e0", "p2")
        with pytest.raises(SchemaError, match="unfolding needs at most one"):
            unfold_events(log, "view page", "Page", "code")

    def test_preserves_counts_and_relations(self):
        log = self.build()
        out = unfold_events(log, "view page", "Page", "code")
        assert len(out.events) == len(log.events)
        assert out.e2o == log.e2o
        assert out.o2o == log.o2o
        assert {o.id for o in out.objects.values()} == {o.id for o in log.objects.values()}

    def test_missing_name_attribute_value(self):
        log = self.build()
        log.add_object(ObjectInstance("p9", "Page", ()))
        log.add_event(EventInstance("e9", "view page", at(5)))
        log.relate_event_object("e9", "p9")
        with pytest.raises(SchemaError, match="no string value"):
            unfold_events(log, "view page", "Page", "code")


class TestDiscoverDfg:
    def trace_log(self, sequence):
        log = OcedLog([ObjectTypeDef("Case")],
                      [EventTypeDef(t) for t in sorted(set(sequence))])
        log.add_object(ObjectInstance("c1", "Case", ()))
        for i, etype in enumerate(sequence):
            log.add_event(EventInstance(f"e{i}", etype, at(i)))
            log.relate_event_object(f"e{i}", "c1")
        return log

    def test_simple_trace(self):
        dfg = discover_dfg(self.trace_log(["a", "b", "b"]), {"Case"})
        g = dfg.per_type["Case"]
        assert g.edges == {("a", "b"): 1, ("b", "b"): 1}
        assert g.nodes == {"a": 1, "b": 2}
        assert g.start_frequencies == {"a": 1}
        assert g.end_frequencies == {"b": 1}

    def test_single_event_trace(self):
        dfg = discover_dfg(self.trace_log(["a"]), {"Case"})
        g = dfg.per_type["Case"]
        assert g.edges == {}
        assert g.start_frequencies == g.end_frequencies == {"a": 1}

    def test_unknown_type(self):
        with pytest.raises(SchemaError, match="unknown object type"):
            discover_dfg(self.trace_log(["a"]), {"Ghost"})

    def test_edge_conservation_on_random_logs(self):
        for seed in range(8):
            log = random_log(random.Random(seed), max_events=80, max_objects=30)
            types = [td.name for td in log.object_type_defs]
            dfg = discover_dfg(log, types)
            for t in types:
                g = dfg.per_type[t]
                traces = [log.events_of_object(o.id)
                          for o in log.objects.values() if o.type == t]
                assert sum(g.edges.values()) == sum(max(len(tr) - 1, 0) for tr in traces)
                nonempty = sum(1 for tr in traces if tr)
                assert sum(g.start_frequencies.values()) == nonempty
                assert sum(g.end_frequencies.values()) == nonempty

    def test_matches_brute_force(self):
        log = random_log(random.Random(23), max_events=100, max_objects=40)
        types = [td.name for td in log.object_type_defs]
        dfg = discover_dfg(log, types)
        for t in types:
            edges = {}
            for obj in log.objects.values():
                if obj.type != t:
                    continue
                related = sorted({r.event_id for r in log.e2o if r.object_id == obj.id})
                trace = sorted((log.events[eid] for eid in related),
                               key=lambda e: (e.time, e.id))
                for a, b in zip(trace, trace[1:]):
                    edges[(a.type, b.type)] = edges.get((a.type, b.type), 0) + 1
            assert dfg.per_type[t].edges == edges


class TestToDot:
    def test_empty_dfg(self):
        from ocedf.analysis import Dfg
        text = to_dot(Dfg({}))
        assert text.startswith("// ")
        assert "digraph {" in text and text.rstrip().endswith("}")
        assert "->" not in text

    def test_two_nodes_one_edge(self):
        log = TestDiscoverDfg().trace_log(["a", "b"])
        text = to_dot(discover_dfg(log, {"Case"}))
        assert text.count("->") == 1
        assert 'label="1"' in text

    def test_deterministic(self):
        log = random_log(random.Random(2), max_events=60, max_objects=25)
        types = {td.name for td in log.object_type_defs}
        a = to_dot(discover_dfg(log, types))
        b = to_dot(discover_dfg(log, types))
        assert a == b

    def test_threshold_filters_edges(self):
        log = TestDiscoverDfg().trace_log(["a", "b", "a", "b", "c"])
        dfg = discover_dfg(log, {"Case"})
        assert to_dot(dfg, min_edge_frequency=2).count("->") == 1  # only a->b kept
        assert to_dot(dfg, min_edge_frequency=0).count("->") == 3

    def test_quotes_escaped(self):
        log = OcedLog([ObjectTypeDef("Case")], [EventTypeDef('say "hi"')])
        log.add_object(ObjectInstance("c1", "Case", ()))
        log.add_event(EventInstance("e0", 'say "hi"', at(0)))
        log.relate_event_object("e0", "c1")
        text = to_dot(discover_dfg(log, {"Case"}))
        assert '\\"hi\\"' in text

    def test_negative_threshold_rejected(self):
        from ocedf.analysis import Dfg
        with pytest.raises(ValueError):
            to_dot(Dfg({}), -1)


def test_submission_process_filter(case_study):
    _, log, _ = case_study
    submission = {"submit assignment", "resubmit assignment", "set assignment grade"}
    out = filter_log(log, keep_event_types=submission)
    assert {e.type for e in out.events.values()} == submission
    assert len(out.events) == 23 + 8 + 134


def test_page_navigation_loop_structure(case_study):
    # filter to page views, unfold by page code, discover the User DFG
    _, log, _ = case_study
    pages = filter_log(log, keep_event_types={"view page"})
    unfolded = unfold_events(pages, "view page", "Page", "code")
    dfg = discover_dfg(unfolded, {"User"})
    edges = dfg.per_type["User"].edges
    chain = [("A1P1", "A1P2"), ("A1P2", "A1P3"), ("A1P3", "A1P4"), ("A1P4", "A1P5")]
    for a, b in chain:
        assert edges[(f"view page {a}", f"view page {b}")] >= 100
    for a, b in [("A1P5", "A1P6"), ("A1P6", "L1P1"), ("L1P1", "A1P5")]:
        assert edges[(f"view page {a}", f"view page {b}")] >= 1


def _widened(log, rng):
    """``log`` rebuilt with one more object type, ``Idle``, that has no
    objects; one event related to one object under a second qualifier; and
    one new object whose trace is a single event."""
    out = ref._rebuild([*log.object_type_defs, ObjectTypeDef("Idle")], log.event_type_defs,
                       log.objects.values(), log.events_in_order(), log.e2o, log.o2o)
    if out.e2o:
        rel = rng.choice(sorted(out.e2o))
        qualifier = next(q for q in QUALIFIERS if not out.has_e2o(rel.event_id, rel.object_id, q))
        out.relate_event_object(rel.event_id, rel.object_id, qualifier)
    if out.events:
        out.add_object(ObjectInstance("solo", rng.choice(log.object_type_defs).name, ()))
        out.relate_event_object(rng.choice(sorted(out.events)), "solo", "")
    return out


def _outcome(op, *args):
    try:
        return op(*args), None
    except SchemaError as exc:
        return None, str(exc)


@given(seed=st.integers(min_value=0, max_value=10_000), hierarchy=st.booleans())
@settings(max_examples=80, deadline=None)
def test_trace_walks_match_the_per_object_copies(seed, hierarchy):
    """``discover_dfg``, ``stats`` and ``unfold_events`` against the code that
    copied each object's trace through ``events_of_object``: every dict of
    every graph in the same order, the same text and the same errors."""
    rng = random.Random(seed)
    log = _widened(random_log(rng, max_events=120, max_objects=60, with_user_hierarchy=hierarchy), rng)
    types = [td.name for td in log.object_type_defs]
    for requested in (types, rng.sample(types, rng.randint(0, len(types))), ["Idle"]):
        got, want = discover_dfg(log, requested), ref.discover_dfg(log, requested)
        assert list(got.per_type) == list(want.per_type)
        for t, graph in got.per_type.items():
            for name in ("nodes", "edges", "start_frequencies", "end_frequencies"):
                assert list(getattr(graph, name).items()) == list(getattr(want.per_type[t], name).items())
    for attr in ("role", "name", "a0"):
        assert stats(log, attr) == ref.stats(log, attr)

    event_types = [td.name for td in log.event_type_defs]
    related = Counter((rel.event_id, rel.object_id) for rel in log.e2o)
    pairs = [(log.events[eid].type, log.objects[oid].type) for (eid, oid), n in related.items() if n > 1]
    pairs += [(rng.choice(event_types), rng.choice(types)) for _ in range(3)]
    for event_type, object_type in pairs:
        attr = rng.choice(["role", "name", "a0", "a1"])
        got, got_error = _outcome(unfold_events, log, event_type, object_type, attr)
        want, want_error = _outcome(ref.unfold_events, log, event_type, object_type, attr)
        assert got_error == want_error
        assert got_error is not None or got.structurally_equal(want)


def test_dfg_and_stats_read_the_stored_traces(monkeypatch):
    """Neither copies a trace through ``events_of_object``, and the two
    together build the log's traces once."""
    log = random_log(random.Random(5), max_events=80, max_objects=30, with_user_hierarchy=True)
    copies, builds = [], []
    events_of_object, object_traces = OcedLog.events_of_object, OcedLog._object_traces

    def copy_spy(self, object_id):
        copies.append(object_id)
        return events_of_object(self, object_id)

    def build_spy(self):
        if self._traces is None:
            builds.append(self)
        return object_traces(self)

    monkeypatch.setattr(OcedLog, "events_of_object", copy_spy)
    monkeypatch.setattr(OcedLog, "_object_traces", build_spy)
    types = [td.name for td in log.object_type_defs]
    discover_dfg(log, types)
    stats(log)
    discover_dfg(log, types[:1])
    assert copies == [] and builds == [log]
