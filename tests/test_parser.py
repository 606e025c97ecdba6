import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foon.parser
from foon.core import FunctionalUnit, ObjectKey
from foon.data import corpus_file, subgraph_paths
from foon.parser import (
    ParseError,
    ParseWarning,
    SchemaError,
    parse_goal_nodes,
    parse_kitchen,
    parse_motion_rates,
    parse_subgraph,
    write_subgraph,
)
from helpers import key_of, reference_parse_subgraph

ONE_UNIT = (
    "O\tcream\n"
    "S\traw\n"
    "M\twhip\t3:05\t3:20\n"
    "O\tcream\n"
    "S\twhipped\n"
    "//\n"
)


def test_parse_one_unit():
    units = parse_subgraph(ONE_UNIT)
    assert len(units) == 1
    (u,) = units
    assert u.inputs == (key_of("cream", ["raw"]),)
    assert u.outputs == (key_of("cream", ["whipped"]),)
    assert u.motion == "whip"
    assert u.start_time == "3:05"
    assert u.end_time == "3:20"
    # cross-check by round-trip
    assert write_subgraph(units) == ONE_UNIT


def test_parse_empty_file():
    assert parse_subgraph("") == []


def test_comments_and_blank_lines_ignored():
    assert parse_subgraph("# a recipe\n\n" + ONE_UNIT) == parse_subgraph(ONE_UNIT)


def test_motion_before_object_is_error():
    with pytest.raises(ParseError) as err:
        parse_subgraph("M\twhip\n")
    assert err.value.line_no == 1


@pytest.mark.parametrize(
    "text, bad_line",
    [
        ("O\tcream\nX\traw\n//\n", 2),  # unknown tag
        ("O\tcream\nM\twhip\nO\tcream\n", 4),  # missing // terminator
        ("O\tcream\nM\twhip\n//\n", 3),  # zero outputs
        ("M\twhip\nO\tcream\n//\n", 1),  # motion before any object
        ("S\traw\n", 1),  # state without object
        ("O\tcream\nS\n", 2),  # malformed state line
        ("O\tcream\nI\n", 2),  # malformed ingredient line
        ("O\tcream\nM\twhip\t1\t2\t3\n//\n", 2),  # too many motion fields
        ("O\tcream\nM\twhip\nO\tx\n//\n//\n", 5),  # stray terminator
    ],
)
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(ParseError) as err:
        parse_subgraph(text)
    assert err.value.line_no == bad_line


# every ParseError message parse_subgraph can raise; "unknown line tag" is
# followed by the tag
REACHABLE_MESSAGES = (
    "unit terminated without a motion line",
    "unit has no output objects",
    "O line needs exactly one name field",
    "S line without a preceding O line",
    "S line needs exactly one state field",
    "I line without a preceding O line",
    "I line needs exactly one ingredient field",
    "M line before any object in the unit",
    "second M line in one unit",
    "M line needs a motion name and at most two timestamps",
    "unknown line tag",
    "unexpected end of file: unit missing '//' terminator",
)
# lines spliced into corpus files; "S\t \n", "I\t \n" and "\r\n" add two
CORPUS_SPLICES = ("O\t", "S\t \n", "I\t \n", "M\ta\tb\tc\td", "//", "#", "", "\t", "\r\n")
SOUP_TOKENS = ("O\ta", "S\ta", "I\ta", "M\ta", "O", "S", "I", "M", "//", "#", "a", " ", "\t")


# lines spliced into written texts: each is a line the writer could write
WRITER_SPLICES = ("O\tcream", "S\traw", "I\tfeta", "M\twhip", "M\twhip\t1:05\t1:20", "//")


def _spliced(rng, text, splices=CORPUS_SPLICES):
    """The text with one to three lines deleted, inserted or replaced."""
    lines = text.splitlines(keepends=True)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(lines) + 1)
        edit = rng.choice(("delete", "insert", "replace"))
        if edit != "insert":
            del lines[pos : pos + 1]
        if edit != "delete":
            lines.insert(pos, rng.choice(splices) + "\n")
    return "".join(lines)


# characters of the fields of random units: letters in both cases, spaces, a
# non-ASCII letter whose lowercase depends on its context, the line tags,
# and a control character that is no line break
FIELD_CHARS = "abcZ é Σ#/OSIM\x1f"
TIMESTAMPS = (None, "", "0:05", " 1:12")


def _random_field(rng):
    field = ""
    while not field.strip():
        field = "".join(rng.choices(FIELD_CHARS, k=rng.randint(1, 5)))
    return field


def _random_units(rng, max_units=6):
    """Random units over a few random objects, which they share."""
    objects = [
        ObjectKey(
            _random_field(rng),
            [_random_field(rng) for _ in range(rng.randint(0, 2))],
            [_random_field(rng) for _ in range(rng.randint(0, 2))],
        )
        for _ in range(rng.randint(1, 6))
    ]
    return [
        FunctionalUnit(
            rng.choices(objects, k=rng.randint(1, 3)),
            _random_field(rng),
            start_time=rng.choice(TIMESTAMPS),
            end_time=rng.choice(TIMESTAMPS),
            outputs=rng.choices(objects, k=rng.randint(1, 3)),
        )
        for _ in range(rng.randint(1, max_units))
    ]


@pytest.fixture()
def line_loop_calls(monkeypatch):
    """Each text ``parse_subgraph`` hands to the line check, in call order."""
    calls = []
    check_lines = foon.parser._check_lines

    def counted(text):
        calls.append(text)
        return check_lines(text)

    monkeypatch.setattr(foon.parser, "_check_lines", counted)
    return calls


def _token_soup(rng):
    """One to eight lines of one or two tokens each."""
    lines = ("".join(rng.choices(SOUP_TOKENS, k=rng.randint(1, 2))) for _ in range(rng.randint(1, 8)))
    return rng.choice(("\n", "\r\n")).join(lines)


def _fields(u):
    return (u.inputs, u.motion, u.start_time, u.end_time, u.outputs)


def _outcome(parse, text):
    # timestamps compared too: unit equality ignores them
    try:
        return [_fields(u) for u in parse(text)]
    except ParseError as exc:
        return exc.line_no, str(exc)


def test_parse_subgraph_matches_reference_on_corrupted_input(line_loop_calls):
    rng = random.Random(8)
    corpora = [path.read_text() for path in subgraph_paths()]
    hits = Counter()
    paths = Counter()
    for draw in range(12_000):
        if draw % 3 == 0:
            text = _token_soup(rng)
        elif draw % 3 == 1:
            text = _spliced(rng, rng.choice(corpora))
        else:  # written text, spliced with lines the writer writes or never writes
            text = _spliced(rng, write_subgraph(_random_units(rng)), rng.choice((CORPUS_SPLICES, WRITER_SPLICES)))
        expected = _outcome(reference_parse_subgraph, text)
        calls = len(line_loop_calls)
        assert _outcome(parse_subgraph, text) == expected, text
        paths["line loop" if len(line_loop_calls) > calls else "blocks"] += 1
        if isinstance(expected, tuple):
            message = expected[1].split(": ", 1)[1]
            hits[next(m for m in REACHABLE_MESSAGES if message.startswith(m))] += 1
    assert {m: hits[m] for m in REACHABLE_MESSAGES if hits[m] < 20} == {}
    assert min(paths["blocks"], paths["line loop"]) >= 300, paths


def _refuse_line_loop(text):
    raise AssertionError(f"written text went to the line check: {text!r}")


def test_checked_text_is_read_in_blocks(monkeypatch):
    # what the line check accepts, it gives back in the writer's form: the
    # block reader alone turns that into the units the reference reads
    rng = random.Random(12)
    corpora = [path.read_text() for path in subgraph_paths()]
    outcomes = Counter()
    for draw in range(3_000):
        if draw % 3 == 0:
            text = _token_soup(rng)
        elif draw % 3 == 1:
            text = _spliced(rng, rng.choice(corpora))
        else:
            text = _spliced(rng, write_subgraph(_random_units(rng)), rng.choice((CORPUS_SPLICES, WRITER_SPLICES)))
        expected = _outcome(reference_parse_subgraph, text)
        try:
            checked = foon.parser._check_lines(text)
        except ParseError:
            outcomes["refused"] += 1
            continue
        outcomes["accepted"] += 1
        with monkeypatch.context() as patch:
            patch.setattr(foon.parser, "_check_lines", _refuse_line_loop)
            assert (_outcome(parse_subgraph, checked) if checked else []) == expected, text
    assert min(outcomes["refused"], outcomes["accepted"]) >= 300, outcomes


def test_written_text_is_read_in_blocks(monkeypatch):
    monkeypatch.setattr(foon.parser, "_check_lines", _refuse_line_loop)
    rng = random.Random(10)
    for _ in range(500):
        units = _random_units(rng)
        text = write_subgraph(units)
        assert _outcome(parse_subgraph, text) == _outcome(reference_parse_subgraph, text), text
        assert parse_subgraph(text) == units


@pytest.mark.parametrize("path", subgraph_paths(), ids=lambda p: p.stem)
def test_corpus_files_are_read_in_blocks(path, monkeypatch):
    text = path.read_text()
    expected = _outcome(reference_parse_subgraph, text)
    monkeypatch.setattr(foon.parser, "_check_lines", _refuse_line_loop)
    assert _outcome(parse_subgraph, text) == expected


TWO_UNITS = ONE_UNIT + "O\tcream\nS\twhipped\nI\tsugar\nM\tmix\nO\ttopping\n//\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(TWO_UNITS.replace("\n", "\r\n"), id="crlf"),
        pytest.param(TWO_UNITS.replace("sugar", "su\x1cgar"), id="file-separator-in-field"),
        pytest.param(TWO_UNITS.replace("sugar", "su\u2028gar"), id="line-separator-in-field"),
        pytest.param(TWO_UNITS[:-1], id="no-final-newline"),
        pytest.param(TWO_UNITS.replace("//\nO", "//\n# next\nO"), id="comment-mid-file"),
        pytest.param(TWO_UNITS.replace("//\nO", "//\n\nO"), id="blank-line-mid-file"),
        pytest.param(TWO_UNITS.replace("M\tmix", "\nM\tmix"), id="blank-line-before-motion"),
        pytest.param(TWO_UNITS.replace("topping\n", "topping\n\n"), id="blank-line-before-terminator"),
        pytest.param(TWO_UNITS.replace("//\nO", " // \nO"), id="padded-terminator"),
        pytest.param(TWO_UNITS.replace("//\nO", "//\t\nO"), id="terminator-with-tab"),
        pytest.param(TWO_UNITS.replace("topping", "top\tping"), id="tab-in-name"),
        pytest.param(TWO_UNITS.replace("sugar", "su\tgar"), id="tab-in-ingredient"),
        pytest.param(TWO_UNITS.replace("M\tmix", "M\tmix\t1\t2\t3"), id="three-timestamps"),
        pytest.param(TWO_UNITS.replace("M\tmix", "M\t \t1"), id="blank-motion"),
        pytest.param(TWO_UNITS.replace("S\twhipped\nI", "S\t \nI"), id="blank-state"),
        pytest.param(TWO_UNITS.replace("M\tmix\n", "M\tmix\nS\traw\n"), id="state-right-after-motion"),
        pytest.param(TWO_UNITS.replace("M\tmix\n", "M\tmix\nM\tpour\n"), id="two-motion-lines"),
        pytest.param(TWO_UNITS.replace("O\ttopping\n", "O\ttopping\nM\tpour\nO\tx\n"), id="second-motion-later"),
        pytest.param(TWO_UNITS.replace("O\ttopping\n", ""), id="no-outputs"),
        pytest.param(TWO_UNITS.replace("M\tmix\n", ""), id="no-motion"),
        pytest.param("M\tmix\n" + TWO_UNITS, id="motion-first"),
        pytest.param(TWO_UNITS.replace("I\tsugar", " I\tsugar"), id="padded-tag"),
        pytest.param(TWO_UNITS.replace("I\tsugar", "X\tsugar"), id="unknown-tag"),
        pytest.param(TWO_UNITS + "//\n", id="stray-terminator"),
        pytest.param("# task tree: 2 units\n" + TWO_UNITS, id="task-tree-header"),
    ],
)
def test_irregular_text_takes_the_line_loop(text, line_loop_calls):
    expected = _outcome(reference_parse_subgraph, text)
    assert _outcome(parse_subgraph, text) == expected
    assert line_loop_calls == [text]


def test_a_shared_memo_gives_what_separate_parses_give():
    rng = random.Random(11)
    units = _random_units(rng, max_units=12)
    texts = [path.read_text() for path in subgraph_paths()]
    texts += [write_subgraph(rng.sample(units, rng.randint(1, len(units)))) for _ in range(6)]
    texts.insert(2, "# a comment\n" + texts[-1])  # checked line by line first
    blocks = {}
    shared = [parse_subgraph(text, blocks=blocks) for text in texts]
    separate = [parse_subgraph(text) for text in texts]
    assert blocks
    for one, other in zip(shared, separate):
        assert [_fields(u) for u in one] == [_fields(u) for u in other]
        for unit, twin in zip(one, other):
            assert all(a is b for a, b in zip(unit.inputs + unit.outputs, twin.inputs + twin.outputs))


@pytest.mark.parametrize("path", subgraph_paths(), ids=lambda p: p.stem)
def test_irregular_text_shares_the_memo(path):
    text = path.read_text()
    blocks = {}
    irregular = parse_subgraph("# a recipe\r\n" + text.replace("\n", "\r\n"), blocks=blocks)
    entries = list(blocks.items())
    assert entries
    regular = parse_subgraph(text, blocks=blocks)
    assert list(blocks.items()) == entries  # keys compare by identity
    assert [_fields(u) for u in irregular] == [_fields(u) for u in regular]


def test_other_breaks_are_every_line_break_but_newline():
    every = "".join(map(chr, range(0x110000)))
    breaks = set(every) - set("".join(every.splitlines()))
    assert sorted(foon.parser._OTHER_BREAKS + "\n") == sorted(breaks)


RECURRING_NAMES = ("cream", "bowl", "salad")
RECURRING_STATES = ("raw", "whipped", "in [bowl]")
RECURRING_INGREDIENTS = ("feta", "tomato")


def _written_variant(rng, word):
    cased = "".join(c.upper() if rng.random() < 0.5 else c for c in word)
    return " " * rng.randint(0, 1) + cased + " " * rng.randint(0, 1)


def _recurring_objects_file(rng):
    """One to four units drawn from four objects, each occurrence written
    anew: states and ingredients shuffled, states duplicated, every field in
    mixed case and padded. Returns the text and each occurrence's written
    ``(name, states, ingredients)``, in file order."""
    objects = [
        (
            rng.choice(RECURRING_NAMES),
            rng.sample(RECURRING_STATES, rng.randint(0, 2)),
            rng.choices(RECURRING_INGREDIENTS, k=rng.randint(0, 2)),
        )
        for _ in range(4)
    ]
    lines, written = [], []
    for _ in range(rng.randint(1, 4)):
        for section in ("inputs", "outputs"):
            for _ in range(rng.randint(1, 3)):
                name, states, ingredients = rng.choice(objects)
                states = states + rng.sample(states, rng.randint(0, len(states)))
                occurrence = (
                    _written_variant(rng, name),
                    [_written_variant(rng, s) for s in rng.sample(states, len(states))],
                    [_written_variant(rng, i) for i in rng.sample(ingredients, len(ingredients))],
                )
                written.append(occurrence)
                lines += [f"O\t{occurrence[0]}", *(f"S\t{s}" for s in occurrence[1])]
                lines += [f"I\t{i}" for i in occurrence[2]]
            if section == "inputs":
                lines.append("M\tmix")
        lines.append("//")
    return "".join(line + "\n" for line in lines), written


def test_parse_subgraph_matches_reference_on_recurring_objects():
    # objects recur in other orders and spellings, so the parser's per-call
    # field and key memos both hit and miss
    rng = random.Random(9)
    outcomes = Counter()
    for draw in range(2_000):
        text, written = _recurring_objects_file(rng)
        if draw % 2:
            text = _spliced(rng, text)
        expected = _outcome(reference_parse_subgraph, text)
        assert _outcome(parse_subgraph, text) == expected, text
        outcomes["error" if isinstance(expected, tuple) else "units"] += 1
        if not draw % 2:
            parsed = [key for u in parse_subgraph(text) for key in (*u.inputs, *u.outputs)]
            assert len(parsed) == len(written)
            spellings = {}
            for key, fields in zip(parsed, written):
                assert key is ObjectKey(*fields), (fields, text)
                spellings.setdefault(key, set()).add(repr(fields))
            outcomes["respelled"] += any(len(s) > 1 for s in spellings.values())
    assert min(outcomes.values()) >= 300, outcomes


def test_write_empty():
    assert write_subgraph([]) == ""


names = st.sampled_from(["cream", "bowl", "salad", "tomato", "oil", "whisk"])
states = st.lists(st.sampled_from(["raw", "whipped", "in [bowl]", "dirty", "sliced"]), max_size=3)
ingredients = st.lists(st.sampled_from(["feta", "tomato", "onion", "salt"]), max_size=3)
timestamps = st.none() | st.sampled_from(["0:05", "1:12", "13:59"])


@st.composite
def object_nodes(draw):
    return ObjectKey(draw(names), draw(states), draw(ingredients))


@st.composite
def functional_units(draw):
    start = draw(timestamps)
    end = draw(timestamps) if start is not None else None
    motion = draw(st.sampled_from(["whip", "pour", "cut", "mix"]))
    return FunctionalUnit(
        draw(st.lists(object_nodes(), min_size=1, max_size=3)),
        motion,
        draw(st.lists(object_nodes(), min_size=1, max_size=3)),
        start,
        end,
    )


@settings(max_examples=100)
@given(st.lists(functional_units(), max_size=6))
def test_round_trip_random_units(units):
    text = write_subgraph(units)
    reparsed = parse_subgraph(text)
    assert reparsed == units
    assert write_subgraph(reparsed) == text


CREAM = ObjectKey("cream")


@pytest.mark.parametrize(
    "inputs, motion, outputs, times",
    [
        pytest.param([ObjectKey("a\x85b")], "mix", [CREAM], (), id="name-nel"),
        pytest.param([ObjectKey("a\u2028b")], "mix", [CREAM], (), id="name-line-separator"),
        pytest.param([ObjectKey("a\tb")], "mix", [CREAM], (), id="name-tab"),
        pytest.param([CREAM], "mix", [ObjectKey("c", ["raw\rcut"])], (), id="output-state-cr"),
        pytest.param([CREAM], "mix", [ObjectKey("c", [], ["x\x0cy"])], (), id="ingredient-form-feed"),
        pytest.param([CREAM], "mi\x0bx", [CREAM], (), id="motion-vertical-tab"),
        pytest.param([CREAM], "mix", [CREAM], ("1\n",), id="start-newline"),
        pytest.param([CREAM], "mix", [CREAM], ("1", "2\x1e"), id="end-record-separator"),
        pytest.param([CREAM], "mix", [CREAM], ("1\t2",), id="start-tab"),
    ],
)
def test_write_subgraph_refuses_fields_it_cannot_write_back(inputs, motion, outputs, times):
    good = FunctionalUnit([CREAM], "whip", [CREAM])
    with pytest.raises(ValueError, match=r"^unit 1: field .* holds a tab or line break$"):
        write_subgraph([good, FunctionalUnit(inputs, motion, outputs, *times)])


def test_write_subgraph_keeps_other_control_characters():
    # \x1f and an empty timestamp are no line break, so they round-trip
    unit = FunctionalUnit([ObjectKey("a\x1fb")], "mix", [CREAM], "")
    text = write_subgraph([unit])
    (reparsed,) = parse_subgraph(text)
    assert reparsed == unit
    assert reparsed.start_time == ""
    assert write_subgraph([reparsed]) == text


@pytest.mark.parametrize("path", subgraph_paths(), ids=lambda p: p.stem)
def test_corpus_files_rewrite_byte_identical(path):
    original = path.read_text()
    assert write_subgraph(parse_subgraph(original)) == original


def test_parse_motion_rates():
    table = parse_motion_rates("whip\t0.9\npour\t0.75\n")
    assert table == {"whip": 0.9, "pour": 0.75}


def test_parse_motion_rates_empty():
    assert parse_motion_rates("") == {}


def test_motion_rate_out_of_range():
    with pytest.raises(ParseError):
        parse_motion_rates("whip\t1.5\n")


def test_motion_rate_non_numeric():
    with pytest.raises(ParseError) as err:
        parse_motion_rates("whip\thigh\n")
    assert err.value.line_no == 1


def test_motion_rates_skip_comments_and_blank_lines():
    assert parse_motion_rates("# success rates\n\n  \nwhip\t0.9\n  # pour\t0.1\n") == {"whip": 0.9}


@pytest.mark.parametrize(
    "text, message",
    [
        ("whip 0.9\n", "expected motion-name<TAB>rate"),
        ("whip\t0.9\t0.1\n", "expected motion-name<TAB>rate"),
        (" \t0.9\n", "empty motion name"),
    ],
)
def test_motion_rate_line_shape_errors(text, message):
    with pytest.raises(ParseError, match=f"^line 1: {message}$") as err:
        parse_motion_rates(text)
    assert err.value.line_no == 1


def test_motion_rate_duplicate_overrides_with_warning():
    with pytest.warns(ParseWarning):
        table = parse_motion_rates("whip\t0.5\nwhip\t0.9\n")
    assert table == {"whip": 0.9}


def test_parse_goal_nodes():
    goals = parse_goal_nodes(
        '[{"object":"whipped cream","states":["whipped"],"ingredients":[]}]'
    )
    assert len(goals) == 1
    assert goals[0] == key_of("whipped cream", ["whipped"])


def test_parse_goal_nodes_empty():
    assert parse_goal_nodes("[]") == []


def test_goal_missing_object_field():
    with pytest.raises(SchemaError) as err:
        parse_goal_nodes('[{"states":["whipped"]}]')
    assert err.value.field == "object"


def test_goal_bad_states_field():
    with pytest.raises(SchemaError) as err:
        parse_goal_nodes('[{"object":"x","states":"whipped"}]')
    assert err.value.field == "states"


@pytest.mark.parametrize("parse", [parse_goal_nodes, parse_kitchen])
def test_object_files_need_an_array_of_named_objects(parse):
    with pytest.raises(SchemaError, match=r"^field '<root>': expected a JSON array$") as err:
        parse('{"object": "cream"}')
    assert err.value.field == "<root>"
    with pytest.raises(SchemaError, match=r"^field 'object': must be a non-empty string in entry 0$") as err:
        parse('[{"object": 1}]')
    assert err.value.field == "object"


def test_parse_kitchen():
    kitchen = parse_kitchen('[{"object":"cream","states":["raw"]},{"object":"sugar"}]')
    assert len(kitchen) == 2
    assert key_of("cream", ["raw"]) in kitchen


def test_parse_kitchen_empty():
    assert parse_kitchen("[]") == frozenset()


def test_kitchen_duplicates_collapse_with_warning():
    with pytest.warns(ParseWarning):
        kitchen = parse_kitchen('[{"object":"sugar"},{"object":"sugar"}]')
    assert kitchen == frozenset({key_of("sugar")})


def test_corpus_kitchen_and_goals_parse():
    kitchen = parse_kitchen(corpus_file("kitchen.json").read_text())
    goals = parse_goal_nodes(corpus_file("goal_nodes.json").read_text())
    assert key_of("cream", ["raw"]) in kitchen
    assert goals[0] == key_of("whipped cream", ["whipped"])
