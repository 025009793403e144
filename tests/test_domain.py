from __future__ import annotations

import copy
import dataclasses
import hashlib
import random
from fnmatch import fnmatch
from importlib import resources
from pathlib import Path

import pytest

from mhgfilter import (ActionModel, AnnotationTuple, Effect, EffectEdge,
                       IntegrityError, Match, ParseError, PatternEdge,
                       StructuralError, apply,
                       builtin_domain, compare, filter_trace, format_trace,
                       generate_trace, ground_options, held_counts, parse_domain,
                       parse_trace)
from mhgfilter.domain import BUILTIN_DOMAINS
from oracles import builtin_document, mini_documents, renamed_mini_document

COMPONENT_LABELS = {"shelf_top", "shelf_bottom", "shelf_middle", "side_left",
                    "side_right", "back_panel", "base_plate",
                    "eccentric", "dowel", "bolt",
                    "screwdriver", "hammer", "allen_key", "wrench", "drill",
                    "pencil", "ruler", "clamp", "spirit_level"}


def test_builtin_domains():
    assert builtin_domain("mini").name == "mini"
    assert builtin_domain("bookshelf").name == "bookshelf"
    with pytest.raises(ParseError):
        builtin_domain("warehouse")


def test_every_builtin_domain_ships_as_package_data():
    """Each built-in scene is a document under ``domains/`` that the
    package-data glob in pyproject.toml matches, so an installed package
    still has it."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    globs = config["tool"]["setuptools"]["package-data"]["mhgfilter"]
    for name in BUILTIN_DOMAINS:
        assert (resources.files("mhgfilter") / "domains" / f"{name}.json").is_file()
        assert any(fnmatch(f"domains/{name}.json", g) for g in globs), name


def test_domain_validation():
    mini = builtin_domain("mini")
    with pytest.raises(StructuralError):
        dataclasses.replace(mini, rules=(mini.rules[0], mini.rules[0]))
    with pytest.raises(StructuralError):
        dataclasses.replace(mini, agent_location_labels=frozenset({"attic"}))
    stray = dataclasses.replace(mini.rules[0], name="stray", effect=Effect(
        assert_=(EffectEdge("at", ("eccentric", "attic")),)))
    with pytest.raises(StructuralError, match="'stray' names vertex 'attic'"):
        dataclasses.replace(mini, rules=mini.rules + (stray,))
    assert mini.rule("walk").name == "walk"
    with pytest.raises(KeyError):
        mini.rule("teleport")


def test_bookshelf_inventory():
    domain = builtin_domain("bookshelf")
    init = domain.initial_state
    components = sum(v.multiplicity for v in init.vertices
                     if v.label in COMPONENT_LABELS)
    assert components == 56
    slots = [v for v in init.vertices if v.id.startswith("slot_")]
    assert len(slots) == 14
    assert len({v.label for v in slots}) == 14
    adjacency = [k for k, (lo, up) in init.bounds.items()
                 if k[0] == "adjacent" and lo == up]
    assert len(adjacency) == 13
    assert init.count_groundings() == 1
    assert {r.name for r in domain.rules} == {
        "walk", "take", "putDown", "installEccentric", "connectBoards"}


def test_annotation_to_dict():
    a = AnnotationTuple("take", "table", "table", {"b": 1, "a": 2}, {})
    assert a.to_dict() == {"action": "take", "loc_t": "table",
                           "loc_next": "table", "held_t": {"a": 2, "b": 1},
                           "held_next": {}}


def test_parse_domain_errors():
    good = builtin_document("mini")
    with pytest.raises(ParseError):
        parse_domain([], "doc")
    with pytest.raises(ParseError) as exc:
        parse_domain({**good, "format": "mhg-domain/9"}, "doc")
    assert "mhg-domain/9" in str(exc.value)
    for key in ("agent", "vertices", "rules"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ParseError):
            parse_domain(broken, "doc")
    broken = dict(good)
    broken["vertices"] = [{"id": "x"}]
    with pytest.raises(ParseError):
        parse_domain(broken, "doc")
    broken = dict(good)
    broken["rules"] = [{"name": "r", "pattern": {"vertices": [
        {"var": "V", "label": "screw", "label_any_of": ["screw"]}]}}]
    with pytest.raises(ParseError):
        parse_domain(broken, "doc")
    # entries that are not objects where objects are expected
    for rules in ([5], [{"name": "r", "pattern": []}],
                  [{"name": "r", "effect": {"retract": [3]}}]):
        with pytest.raises(ParseError):
            parse_domain({**good, "rules": rules}, "doc")
    # structural problems surface as parse errors with the source name
    broken = dict(good)
    broken["vertices"] = good["vertices"] + [{"id": "agent", "label": "agent"}]
    with pytest.raises(ParseError) as exc:
        parse_domain(broken, "dupes.json")
    assert exc.value.source == "dupes.json"

    # an initial state that breaks conservation is a parse error too
    broken = copy.deepcopy(good)
    next(v for v in broken["vertices"] if v["id"] == "eccentric")["multiplicity"] = 5
    with pytest.raises(ParseError) as exc:
        parse_domain(broken, "leaky.json")
    assert exc.value.source == "leaky.json"

    # the observation labels are always "at" and "holds": a document that
    # sets them is rejected rather than read with other labels
    for key in ("at_label", "holds_label"):
        with pytest.raises(ParseError, match=key):
            parse_domain({**good, key: "at"}, "doc")


def test_parse_domain_takes_values_as_written():
    """Integer fields must be JSON integers, not booleans; ids, labels,
    variables and names JSON strings; and label sets, incidences, variable
    lists and constraint edge entries JSON arrays of strings: a coerced
    value would load another domain."""
    good = builtin_document("mini")
    good["bounded_edges"] = [{"label": "mark", "incidence": ["floor"],
                              "lower": 0, "upper": 1}]
    good["constraints"] = [{"name": "g", "edges": [["mark", ["floor"]]], "total": 1}]
    parse_domain(good, "doc")
    lifted, index = lifted_effect_document()
    parse_domain(lifted, "doc")
    ecc = next(i for i, v in enumerate(good["vertices"]) if v["id"] == "eccentric")
    inst = next(i for i, r in enumerate(good["rules"])
                if r["name"] == "installEccentric")
    take = next(i for i, r in enumerate(good["rules"]) if r["name"] == "take")
    cases = [
        (good, ("vertices", ecc, "multiplicity"), (4.7, "4", True)),
        (good, ("vertices", ecc, "id"), (7, None)),
        (good, ("vertices", ecc, "label"), (7, ["eccentric"])),
        (good, ("edges", 0, "label"), (5,)),
        (good, ("edges", 0, "incidence"), ("pq", ["agent", 1])),
        (good, ("bounded_edges", 0, "label"), (5,)),
        (good, ("bounded_edges", 0, "incidence"), ("floor",)),
        (good, ("constraints", 0, "edges", 0), ("mark", ["mark"], 3)),
        (good, ("constraints", 0, "edges", 0, 0), (5,)),
        (good, ("constraints", 0, "edges", 0, 1), ("floor", [1])),
        (good, ("rules", take, "pattern", "vertices", 0, "var"), (1,)),
        (good, ("rules", take, "pattern", "vertices", 0, "label"), (7,)),
        (good, ("rules", take, "pattern", "edges", 0, "label"), (5,)),
        (good, ("rules", take, "pattern", "edges", 0, "vars"), ("AL",)),
        (good, ("rules", take, "effect", "retract", 0, "label"), (5,)),
        (good, ("rules", take, "effect", "assert", 0, "vars"), ("AI", [1, "I"])),
        (good, ("rules", take, "name"), (3,)),
        (good, ("agent",), (1,)),
        (good, ("name",), (12,)),
        (good, ("edges", 0, "multiplicity"), (1.0, "1")),
        (good, ("bounded_edges", 0, "lower"), ("0", False)),
        (good, ("bounded_edges", 0, "upper"), (1.0, True)),
        (good, ("constraints", 0, "total"), (True, "1")),
        (good, ("rules", inst, "effect", "assert", 0, "cap"), (True, 1.0)),
        (good, ("rules", inst, "effect", "retract", 0, "multiplicity"), ("1",)),
        (good, ("rules", inst, "pattern", "vertices", 0, "min_multiplicity"),
         (1.0, "1")),
        (good, ("rules", inst, "pattern", "edges", 0, "min_multiplicity"), (True,)),
        (lifted, ("rules", index, "lifted_effect", "slots", 0, "capacity"),
         (True, 1.0)),
        (good, ("labels", "locations"), ("floor", ["floor", 1])),
        (good, ("labels", "agent_locations"), ("table",)),
        (good, ("labels", "holdable"), ("eccentric", {"eccentric": 1})),
        (good, ("conservation", "edges"), ("at",)),
        (good, ("conservation", "vertices"), ("eccentric", [None])),
        (good, ("rules", inst, "pattern", "vertices", 4, "label_any_of"),
         ("slot_a1",)),
    ]
    for doc, path, values in cases:
        for value in values:
            bad = copy.deepcopy(doc)
            where = bad
            for step in path[:-1]:
                where = where[step]
            where[path[-1]] = value
            with pytest.raises(ParseError) as exc:
                parse_domain(bad, "doc")
            assert repr(value) in str(exc.value), (path, value)


def tiny_document(**parts) -> dict:
    """A document of two vertices, ``a`` (the agent) and ``b``, and no rules,
    with the given top-level parts."""
    return {"format": "mhg-domain/1", "agent": "a",
            "labels": {"locations": [], "agent_locations": [], "holdable": []},
            "vertices": [{"id": "a", "label": "x"}, {"id": "b", "label": "y"}],
            "rules": [], **parts}


def initial_digest(doc) -> str:
    return hashlib.sha256(parse_domain(doc).initial_state.canonical_form().data
                          ).hexdigest()


def test_fixed_multiplicity_absorbed_into_bounds():
    """A key listed in ``edges`` and in ``bounded_edges`` adds its fixed
    multiplicity to its interval and to its group's total, in any incidence
    order; ``edges`` entries that share a key sum."""
    doc = tiny_document(
        edges=[{"label": "at", "incidence": ["b", "a"], "multiplicity": 2}],
        bounded_edges=[{"label": "at", "incidence": ["a", "b"], "lower": 0, "upper": 3},
                       {"label": "on", "incidence": ["a", "b"], "lower": 0, "upper": 3}],
        constraints=[{"edges": [["at", ["a", "b"]], ["on", ["b", "a"]]], "total": 1}])
    l = parse_domain(doc).initial_state
    at, on = ("at", ("a", "b")), ("on", ("a", "b"))
    assert l.multiplicity_bounds(at) == (2, 3)
    assert l.multiplicity_bounds(on) == (0, 1)
    assert l.group_of(at).total == 3
    assert l.count_groundings() == 2
    summed = tiny_document(edges=[{"label": "at", "incidence": ["b", "a"]},
                                  {"label": "at", "incidence": ["a", "b"],
                                   "multiplicity": 2}])
    assert parse_domain(summed).initial_state.bounds == {at: (3, 3)}


def test_documents_load_to_the_initial_bytes_they_always_had():
    """The shipped domains and the documents that fold keys load to the
    initial canonical bytes they loaded to when states were built from edge
    lists (sha256 pinned); the documents those lists rejected still raise
    ParseError."""
    pinned = {
        "mini": "0ee05d1895ef979cf3bdaeb6a9bf54d33a11ec295a53b09995f848bdcc5763e0",
        "bookshelf": "83e9d6fc1170f22275d7ae1c752ff4feadb24a58e463da22095f27b858eba14a",
    }
    for name, digest in pinned.items():
        assert initial_digest(builtin_document(name)) == digest
    at = {"label": "at", "incidence": ["a", "b"]}
    assert initial_digest(tiny_document(
        edges=[{"label": "at", "incidence": ["b", "a"], "multiplicity": 2}],
        bounded_edges=[{**at, "lower": 0, "upper": 3},
                       {"label": "on", "incidence": ["a", "b"], "lower": 0, "upper": 3}],
        constraints=[{"edges": [["at", ["a", "b"]], ["on", ["b", "a"]]], "total": 1}])
    ) == "3d50e242c46f20271ff17cada9e8321f386b07e910fec2ffd951c79d2bec5086"
    assert initial_digest(tiny_document(
        edges=[{"label": "at", "incidence": ["b", "a"]}, {**at, "multiplicity": 2}])
    ) == "908aa83f647ecc4c9780a2b708677ebfe61fc9b6a61ca4dcef99af3f19992b86"
    group = {"edges": [["at", ["a", "b"]]], "total": 1}
    rejected = [
        # a constraint key listed in ``edges`` only
        tiny_document(edges=[at], constraints=[group]),
        tiny_document(bounded_edges=[{**at, "lower": 0, "upper": 1},
                                     {**at, "incidence": ["b", "a"], "lower": 0,
                                      "upper": 2}]),
        tiny_document(edges=[{**at, "multiplicity": 0}]),
        tiny_document(bounded_edges=[{**at, "lower": 2, "upper": 1}]),
        # out of range before a fixed multiplicity would bring them in range
        tiny_document(edges=[at], bounded_edges=[{**at, "lower": -1, "upper": 1}]),
        tiny_document(edges=[at], bounded_edges=[{**at, "lower": 0, "upper": 1}],
                      constraints=[{**group, "total": -1}]),
        tiny_document(bounded_edges=[{**at, "lower": 0, "upper": 1}],
                      constraints=[group, {"edges": [["at", ["b", "a"]]], "total": 1}]),
    ]
    for doc in rejected:
        with pytest.raises(ParseError):
            parse_domain(doc)


def test_rule_edges_must_be_non_empty():
    """A pattern or effect edge with an empty label, or an effect edge over
    no vertices, is rejected when the rule is built: a parse error of its
    document, not an edge with no incidence in the states."""
    with pytest.raises(StructuralError):
        PatternEdge("", ("A",))
    for label, variables in (("", ("A",)), ("ghost", ())):
        with pytest.raises(StructuralError):
            EffectEdge(label, variables)
    for edge in ({"label": "ghost", "vars": []}, {"label": "", "vars": ["A"]}, None):
        doc = builtin_document("mini")
        walk = next(r for r in doc["rules"] if r["name"] == "walk")
        if edge is None:
            walk["pattern"]["edges"][0]["label"] = ""
        else:
            walk["effect"]["assert"].append(edge)
        with pytest.raises(ParseError):
            parse_domain(doc, "doc")


def test_parse_domain_validates_the_action_model():
    """Weights are finite non-negative JSON numbers, never booleans, for
    rules the domain has; ``by_location`` keys are agent-location vertices;
    both tables are JSON objects.  Anything else is a parse error, not a
    crash mid-filter."""
    good = builtin_document("mini")
    good["action_model"] = {"weights": {"walk": 0.5, "take": 0},
                            "by_location": {"table": {"take": 2}}}
    model = parse_domain(good, "doc").action_model
    assert model == ActionModel({"walk": 0.5, "take": 0}, {"table": {"take": 2}})
    bad_weights = ("5", None, -1, True, False, float("nan"), float("inf"), [1])
    cases = [({"weights": {"walk": w}}, repr(w)) for w in bad_weights]
    cases += [({"by_location": {"table": {"take": w}}}, repr(w))
              for w in bad_weights]
    cases += [({"weights": {"walk": 10 ** 400}}, "too large")]
    cases += [
        ([], "[]"),
        ({"weights": [["walk", 1]]}, "[['walk', 1]]"),
        ({"by_location": [["table", {}]]}, "[['table', {}]]"),
        ({"by_location": {"table": 1}}, "1"),
        ({"weights": {"fly": 1}}, "'fly'"),
        ({"by_location": {"table": {"fly": 1}}}, "'fly'"),
        ({"by_location": {"shelf": {"take": 1}}}, "'shelf'"),      # no vertex
        ({"by_location": {"eccentric": {"take": 1}}}, "'eccentric'"),
    ]
    for model, shown in cases:
        with pytest.raises(ParseError) as exc:
            parse_domain({**good, "action_model": model}, "doc")
        assert shown in str(exc.value), model


def lifted_effect_document():
    """The shipped mini document with its install rule written in the
    ``lifted_effect`` form, plus that rule's index."""
    doc = builtin_document("mini")
    index = next(i for i, r in enumerate(doc["rules"])
                 if r["name"] == "installEccentric")
    rule = doc["rules"][index]
    slot_var = rule["pattern"]["vertices"].pop()
    del rule["effect"]["assert"]
    rule["lifted_effect"] = {
        "group": "installed_eccentrics",
        "slots": [{"label": "at", "incidence": ["E", s]}
                  for s in slot_var["label_any_of"]]}
    return doc, index


def test_parse_rejects_retired_lifted_effect_keys():
    """A ``lifted_effect`` takes only ``group`` and ``slots``: the retired
    interval-arithmetic keys are rejected at any value, their former
    defaults included, since ignoring one could change the rule's meaning."""
    mini = builtin_domain("mini")
    good, index = lifted_effect_document()
    assert set(good["rules"][index]["lifted_effect"]) == {"group", "slots"}
    assert parse_domain(good, "doc").rules == mini.rules

    def with_keys(**extra):
        doc = copy.deepcopy(good)
        doc["rules"][index]["lifted_effect"].update(extra)
        return doc

    for key, value in (("total_delta", 1), ("per_edge_upper_delta", 1),
                       ("cap_to_total", True), ("unchecked", False),
                       ("total_delta", 2), ("per_edge_upper_delta", 0),
                       ("cap_to_total", False), ("unchecked", True)):
        with pytest.raises(ParseError) as exc:
            parse_domain(with_keys(**{key: value}), "doc")
        assert repr(key) in str(exc.value)


def test_parse_desugars_lifted_effect():
    """A ``lifted_effect`` loads as the hand-written install rule, with the
    same ground options along a trajectory; slot ids that are not exactly
    the vertices carrying their labels, or that another pattern variable
    could bind, are rejected."""
    mini = builtin_domain("mini")
    doc, index = lifted_effect_document()
    parsed = parse_domain(doc, "doc")
    hand, desugared = mini.rules[index], parsed.rules[index]
    rng = random.Random(3)
    g = mini.initial_state.groundings()[0]
    installs = 0
    for _ in range(40):
        assert ground_options(desugared, g) == ground_options(hand, g)
        installs += bool(ground_options(hand, g))
        options = [(r, m) for r in mini.rules for m in ground_options(r, g)]
        rule, match = options[rng.randrange(len(options))]
        g = apply(rule, g, match)
    assert installs > 0

    def broken(change):
        bad = copy.deepcopy(doc)
        change(bad)
        with pytest.raises(ParseError):
            parse_domain(bad, "doc")

    def partial_label_class(d):
        # slot_b2 now shares slot_b1's label but is not a slot
        d["rules"][index]["lifted_effect"]["slots"].pop()
        next(v for v in d["vertices"] if v["id"] == "slot_b2")["label"] = "slot_b1"

    def unknown_slot(d):
        d["rules"][index]["lifted_effect"]["slots"][0]["incidence"] = ["E", "attic"]

    def wildcard(d):
        d["rules"][index]["pattern"]["vertices"].append({"var": "X"})

    for change in (partial_label_class, unknown_slot, wildcard):
        broken(change)


def test_parse_rejects_malformed_lifted_effect_slots():
    """Slots must exist, share label, arity and a capacity of at least 1,
    and differ in exactly one incidence entry."""
    good, index = lifted_effect_document()

    def slot(i, **change):
        return lambda slots: slots[i].update(change)

    same = "one label, arity and capacity of at least 1"
    for shown, change in (
            ("has no slots", lambda slots: slots.clear()),
            (same, slot(1, label="on")),
            (same, slot(1, incidence=["E", "slot_a2", "table"])),
            (same, slot(1, capacity=2)),
            (same, lambda slots: [s.update(capacity=0) for s in slots]),
            ("differ in exactly one incidence entry",
             slot(1, incidence=["S", "slot_a2"]))):
        doc = copy.deepcopy(good)
        change(doc["rules"][index]["lifted_effect"]["slots"])
        with pytest.raises(ParseError, match=shown):
            parse_domain(doc, "doc")


def test_lifted_effect_slot_variable_avoids_a_taken_name():
    """In a pattern that already binds ``SL`` the slot variable is ``SL_``,
    and the rule has the hand-written rule's options under those names."""
    mini = builtin_domain("mini")
    doc, index = lifted_effect_document()
    pattern = doc["rules"][index]["pattern"]
    for pv in pattern["vertices"]:
        pv["var"] = "SL" if pv["var"] == "T" else pv["var"]
    for pe in pattern["edges"]:
        pe["vars"] = ["SL" if v == "T" else v for v in pe["vars"]]
    desugared = parse_domain(doc, "doc").rules[index]
    assert desugared.pattern.vertices[-1].var == "SL_"
    assert desugared.effect.assert_[-1].vars == ("E", "SL_")
    names = {"SL": "T", "SL_": "SL"}
    hand = mini.rules[index]
    rng = random.Random(3)
    g = mini.initial_state.groundings()[0]
    installs = 0
    for _ in range(40):
        options = ground_options(hand, g)
        assert sorted(Match(tuple((names.get(v, v), x) for v, x in m.assignment))
                      for m in ground_options(desugared, g)) == options
        installs += bool(options)
        options = [(r, m) for r in mini.rules for m in ground_options(r, g)]
        rule, match = options[rng.randrange(len(options))]
        g = apply(rule, g, match)
    assert installs > 0


def test_trace_round_trip():
    domain = builtin_domain("mini")
    trace, _ = generate_trace(domain, seed=1, length=5)
    text = format_trace(trace)
    assert parse_trace(text) == trace
    assert parse_trace("\n# comment\n" + text + "\n\n") == trace


def test_parse_trace_errors():
    with pytest.raises(ParseError) as exc:
        parse_trace('{"action": "walk", "loc_t": "a", "loc_next": "b"}\n{oops\n',
                    "t.jsonl")
    assert exc.value.line == 2
    assert exc.value.source == "t.jsonl"
    with pytest.raises(ParseError) as exc:
        parse_trace("[1, 2]\n")
    assert exc.value.line == 1
    with pytest.raises(ParseError):
        parse_trace('{"loc_t": "a", "loc_next": "b"}\n')
    with pytest.raises(ParseError):
        parse_trace('{"action": "walk", "loc_t": "a", "loc_next": "b", '
                    '"held_t": {"x": "lots"}}\n')
    for count in ("1.5", "true", "-1"):
        with pytest.raises(ParseError) as exc:
            parse_trace('{"action": "walk", "loc_t": "a", "loc_next": "b"}\n'
                        '{"action": "walk", "loc_t": "a", "loc_next": "b", '
                        '"held_next": {"eccentric": %s}}\n' % count, "t.jsonl")
        assert (exc.value.source, exc.value.line) == ("t.jsonl", 2)
    for line in ('{"action": "walk", "loc_t": null, "loc_next": "b"}',
                 '{"action": "walk", "loc_t": "a", "loc_next": 7}',
                 '{"action": ["walk"], "loc_t": "a", "loc_next": "b"}'):
        with pytest.raises(ParseError) as exc:
            parse_trace('{"action": "walk", "loc_t": "a", "loc_next": "b"}\n'
                        + line + "\n", "t.jsonl")
        assert (exc.value.source, exc.value.line) == ("t.jsonl", 2)


def test_a_misspelled_annotation_key_is_a_parse_error():
    """An ignored key would silently change what is observed: ``held_nxt``
    would leave ``held_next`` empty, an agent holding nothing."""
    with pytest.raises(ParseError, match="unknown key 'held_nxt'") as exc:
        parse_trace('{"action": "walk", "loc_t": "a", "loc_next": "b"}\n'
                    '{"action": "walk", "loc_t": "floor", "loc_next": "table", '
                    '"held_nxt": {"eccentric": 1}}\n', "t.jsonl")
    assert (exc.value.source, exc.value.line) == ("t.jsonl", 2)


def test_an_annotation_rejects_what_the_trace_parser_rejects():
    """Built in memory, an annotation checks its fields as ``parse_trace``
    does: a location that is no string, or a count that is no non-negative
    integer, raises ValueError naming it, rather than a bare TypeError in
    the filter or a count read as 0 or 1."""
    cases = [(("walk", None, "table"), "loc_t"),
             ((7, "floor", "table"), "action"),
             (("walk", "floor", "table", {"eccentric": 0.5}), "'eccentric'"),
             (("walk", "floor", "table", {}, {"eccentric": True}), "'eccentric'"),
             (("walk", "floor", "table", {}, {"eccentric": -1}), "'eccentric'"),
             (("walk", "floor", "table", [("eccentric", 1)]), "held_t"),
             (("walk", "floor", "table", {}, {1: 1}), "held_next")]
    for args, named in cases:
        with pytest.raises(ValueError, match=named):
            AnnotationTuple(*args)
    held = {"eccentric": 1}
    annotation = AnnotationTuple("take", "table", "table", {}, held)
    held["eccentric"] = 2
    assert annotation.held_next == {"eccentric": 1}


def test_corrupt_at_needs_a_holdable_label():
    """The corruption writes an impossible count of a holdable label, so a
    domain without one has no corruption to offer."""
    doc = builtin_document("mini")
    doc["labels"]["holdable"] = []
    domain = parse_domain(doc, "nothing_holdable.json")
    assert generate_trace(domain, seed=0, length=3)[0]
    with pytest.raises(ValueError, match="holdable label"):
        generate_trace(domain, seed=0, length=3, corrupt_at=1)


def test_generate_trace_is_deterministic():
    domain = builtin_domain("mini")
    first, t1 = generate_trace(domain, seed=9, length=12)
    second, t2 = generate_trace(domain, seed=9, length=12)
    assert first == second and t1 == t2
    other, _ = generate_trace(domain, seed=10, length=12)
    assert other != first


def test_generate_trace_corruption():
    domain = builtin_domain("mini")
    clean, _ = generate_trace(domain, seed=4, length=10)
    corrupt, _ = generate_trace(domain, seed=4, length=10, corrupt_at=6)
    assert corrupt[:6] == clean[:6]
    assert corrupt[7:] == clean[7:]
    assert corrupt[6].held_next == {"eccentric": 9999}
    assert corrupt[6].action == clean[6].action


def test_generate_trace_rejects_a_corrupt_at_outside_the_trace():
    """``corrupt_at`` must name a step of the returned trace; a step past its
    end, a negative one, or one a dead end cut off raises ValueError."""
    domain = builtin_domain("mini")
    for step in (10, -1):
        with pytest.raises(ValueError, match=f"corrupt_at {step} "):
            generate_trace(domain, seed=4, length=10, corrupt_at=step)
    # with take as its only rule and the agent at the table, the agent
    # takes the five items there and then meets a dead end
    doc = builtin_document("mini")
    doc["rules"] = [r for r in doc["rules"] if r["name"] == "take"]
    assert doc["edges"][0]["incidence"] == ["agent", "floor"]
    doc["edges"][0]["incidence"] = ["agent", "table"]
    taker = parse_domain(doc, "taker")
    trace, truncated = generate_trace(taker, seed=0, length=8, corrupt_at=4)
    assert truncated and len(trace) == 5
    with pytest.raises(ValueError, match="5-step trace"):
        generate_trace(taker, seed=0, length=8, corrupt_at=5)


def test_generate_trace_rejects_a_negative_length():
    domain = builtin_domain("mini")
    with pytest.raises(ValueError, match="length -3 "):
        generate_trace(domain, seed=0, length=-3)
    assert generate_trace(domain, seed=0, length=0) == ([], False)


def test_generate_trace_rejects_unknown_policy():
    with pytest.raises(ValueError):
        generate_trace(builtin_domain("mini"), seed=0, length=1, policy="lazy")


def test_install_heavy_policy_installs():
    domain = builtin_domain("bookshelf")
    heavy, truncated = generate_trace(domain, seed=2, length=40,
                                      policy="install_heavy")
    assert not truncated
    uniform, _ = generate_trace(domain, seed=2, length=40)
    installs = sum(a.action == "installEccentric" for a in heavy)
    assert installs >= 10
    assert installs > sum(a.action == "installEccentric" for a in uniform)
    assert heavy != uniform


def test_install_heavy_runs_on_variables_named_otherwise():
    """``install_heavy`` looks for the mini variable names ``Y`` and ``I``; a
    domain that names them otherwise still gets a trace, which filters."""
    domain = parse_domain(renamed_mini_document(), "renamed.json")
    trace, _ = generate_trace(domain, seed=0, length=12, policy="install_heavy")
    assert trace and {a.action for a in trace} >= {"walk", "take"}
    assert len(filter_trace(domain, trace).beliefs) == len(trace) + 1


@pytest.mark.parametrize("action_model", [
    {"weights": {"walk": 0, "take": 0}},
    {"weights": {"installEccentric": 0}},
    {"weights": {"uninstall": 0}, "by_location": {"table": {"walk": 0}}}])
def test_install_heavy_takes_no_rule_of_weight_zero(action_model):
    """The greedy policy only picks among rules of positive weight at the
    agent's location, and stops the trace when none has an option, as the
    uniform policy does: both filters accept its traces and agree on them.
    With ``walk`` and ``take`` at 0 the agent cannot leave the floor, so
    the trace stops at once."""
    doc = builtin_document("mini")
    doc["action_model"] = action_model
    domain = parse_domain(doc, "weights.json")
    for seed in range(3):
        trace, truncated = generate_trace(domain, seed, 12, policy="install_heavy")
        assert all(domain.action_model.rule_weight(a.action, a.loc_t) for a in trace)
        assert not compare(domain, trace, 1e-9).divergent   # runs both filters
        if "walk" in action_model.get("weights", {}):
            assert trace == [] and truncated
        else:
            assert len(trace) == 12


def test_an_agent_that_is_no_vertex_is_rejected():
    """An ``agent`` id that names no vertex of the initial state is a
    structural error of the domain, and a parse error of its document."""
    doc = builtin_document("mini")
    doc["agent"] = "robot"
    with pytest.raises(ParseError, match="agent 'robot' is no vertex") as exc:
        parse_domain(doc, "robot.json")
    assert exc.value.source == "robot.json"
    with pytest.raises(StructuralError, match="agent 'robot' is no vertex"):
        dataclasses.replace(builtin_domain("mini"), agent_id="robot")


def empty_start_document() -> dict:
    """The mini document with the agent at floor or table, each [0, 1],
    under one constraint of total 3, which no grounding meets."""
    doc = builtin_document("mini")
    assert doc["edges"][0]["incidence"] == ["agent", "floor"]
    del doc["edges"][0]
    places = ("floor", "table")
    doc["bounded_edges"] = [{"label": "at", "incidence": ["agent", p],
                             "lower": 0, "upper": 1} for p in places]
    doc["constraints"] = [{"edges": [["at", ["agent", p]] for p in places],
                           "total": 3}]
    return doc


def test_an_initial_state_without_groundings_is_rejected():
    """An initial state whose constraints admit no grounding is a structural
    error of the domain, and a parse error of its document."""
    with pytest.raises(ParseError, match="admit no grounding") as exc:
        parse_domain(empty_start_document(), "empty.json")
    assert exc.value.source == "empty.json"
    mini = builtin_domain("mini")
    empty = mini.initial_state.conditioned(("at", ("agent", "floor")), 2)
    assert empty.is_empty
    with pytest.raises(StructuralError, match="admit no grounding"):
        dataclasses.replace(mini, initial_state=empty)


def leave_document() -> dict:
    """The mini document plus ``leave``: ``walk`` without its assert, so
    the agent ends up nowhere."""
    doc = builtin_document("mini")
    leave = copy.deepcopy(next(r for r in doc["rules"] if r["name"] == "walk"))
    leave["name"] = "leave"
    leave["effect"]["assert"] = []
    doc["rules"].append(leave)
    return doc


def test_generate_trace_rejects_a_step_that_loses_the_agent():
    """No annotation records an agent without a single location, so the
    generator raises IntegrityError at the step that makes one."""
    domain = parse_domain(leave_document(), "leave.json")
    with pytest.raises(IntegrityError, match=r"step 1 \(rule 'leave'\)"):
        generate_trace(domain, seed=0, length=6)


def test_generated_traces_round_trip():
    """Every trace ``generate_trace`` returns on a random mini-family
    document, under both policies, reads back from its text unchanged."""
    hypothesis = pytest.importorskip("hypothesis")
    traces = random.Random(0)   # the traces' own stream, across examples

    @hypothesis.seed(0)
    @hypothesis.settings(max_examples=40, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(mini_documents())
    def check(drawn):
        _, domain = drawn
        for policy in ("uniform", "install_heavy"):
            trace, _ = generate_trace(domain, traces.randrange(2 ** 16),
                                      traces.randint(1, 30), policy=policy)
            assert parse_trace(format_trace(trace)) == trace

    check()


def test_held_counts():
    domain = builtin_domain("mini")
    g = domain.initial_state.groundings()[0]
    assert held_counts(domain, g) == {}
    walk = domain.rule("walk")
    take = domain.rule("take")
    g = apply(walk, g, ground_options(walk, g)[0])
    m = [m for m in ground_options(take, g) if m.get("I") == "eccentric"][0]
    g = apply(take, g, m)
    assert held_counts(domain, g) == {"eccentric": 1}


def test_mini_ground_state_space_is_small():
    domain = builtin_domain("mini")
    start = domain.initial_state.groundings()[0]
    seen = {start.canonical_form().data}
    frontier = [start]
    while frontier:
        g = frontier.pop()
        for rule in domain.rules:
            for m in ground_options(rule, g):
                h = apply(rule, g, m)
                key = h.canonical_form().data
                if key not in seen:
                    seen.add(key)
                    frontier.append(h)
        assert len(seen) <= 10_000
    assert 100 <= len(seen)
