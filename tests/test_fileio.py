import json
import sys
import tracemalloc
from fractions import Fraction as F
from time import perf_counter

import pytest

from factional_belief import ConcreteGraph, EpistemicModel
from factional_belief.errors import ParseError, SpaceTooLargeError
from factional_belief.fileio import (
    dump_prior,
    format_degree_sequence,
    format_edge_list,
    epistemic_model_from_dict,
    epistemic_model_to_dict,
    load_degree_sequence,
    load_edge_list,
    load_epistemic_model,
    load_prior,
    parse_degree_sequence,
    parse_edge_list,
    parse_rational,
    prior_from_dict,
    prior_to_dict,
    rows_to_csv,
)

MOTIVATING_DOC = {
    "p": "2/5",
    "mu": "1/2",
    "states": {
        "A": {"prob": "1/2", "types": {"alpha": "0", "chi": "4/5", "nu": "1/5"}},
        "B": {"prob": "1/2", "types": {"alpha": "0", "chi": "1/5", "nu": "4/5"}},
    },
}


class TestRationals:
    @pytest.mark.parametrize(
        "text,value",
        [("2/5", F(2, 5)), ("0", F(0)), ("7", F(7)), ("0.005", F(1, 200)), (3, F(3)),
         ("2.5E-3", F(1, 400)), ("1e5", F(100000)), (".5", F(1, 2)), ("5.", F(5)),
         (" -007/0350 ", F(-1, 50)), ("+.25e1", F(5, 2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_reject_float(self):
        with pytest.raises(ParseError):
            parse_rational(0.4)

    def test_reject_garbage(self):
        with pytest.raises(ParseError):
            parse_rational("two fifths")

    def test_exponent_at_the_int_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e{limit}") == 10**limit
        assert parse_rational(f"1e-{limit}") == F(1, 10**limit)
        for text in (f"1e{limit + 1}", f"-2.5E-{limit + 1}", f"1e+{limit + 1}"):
            start = perf_counter()
            with pytest.raises(ParseError, match="the interpreter's integer-digit limit$"):
                parse_rational(text)
            assert perf_counter() - start < 1

    def test_long_decimal_refused_before_expansion(self):
        # Fraction would compute 10**len(decimal) first, about 1.7 s here.
        text = "0." + "1" * 4_000_000
        start = perf_counter()
        with pytest.raises(ParseError) as caught:
            parse_rational(text)
        assert perf_counter() - start < 0.5
        limit = sys.get_int_max_str_digits()
        assert str(caught.value) == (
            f"bad rational {text[:40]!r}... (4000002 characters): Exceeds the limit "
            f"({limit} digits) for integer string conversion: value has 4000000 digits; "
            "use sys.set_int_max_str_digits() to increase the limit"
        )

    @pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000, "x" * 10**6, [1] * 10**5])
    def test_refusal_echo_is_clipped(self, text):
        with pytest.raises(ParseError) as caught:
            parse_rational(text)
        message = str(caught.value)
        assert len(message) < 300
        if isinstance(text, str):
            assert message.startswith(f"bad rational {text[:40]!r}... ({len(text)} characters): ")
        else:
            assert message.startswith(f"bad rational {str(text)[:40]}... ({len(str(text))} characters): ")


class TestPriorDocument:
    def test_round_trip(self):
        prior = prior_from_dict(MOTIVATING_DOC)
        assert prior.p == F(2, 5) and prior.mu == F(1, 2)
        assert prior.state("A").types.chi == F(4, 5)
        assert prior_to_dict(prior) == MOTIVATING_DOC

    def test_file_round_trip(self, tmp_path):
        prior = prior_from_dict(MOTIVATING_DOC)
        path = tmp_path / "prior.json"
        dump_prior(prior, path)
        assert load_prior(path) == prior

    def test_missing_field(self):
        with pytest.raises(ParseError):
            prior_from_dict({"p": "1/2"})

    @pytest.mark.parametrize("doc, where", [
        (dict(MOTIVATING_DOC, states=[{"label": "A"}]), "prior states"),
        (
            dict(MOTIVATING_DOC, states=dict(MOTIVATING_DOC["states"], A={
                "prob": "1/2", "types": "chi"})),
            "types of prior state 'A'",
        ),
        (dict(MOTIVATING_DOC, states={"A": 3}), "prior state 'A'"),
        ([MOTIVATING_DOC], "prior document"),
    ])
    def test_wrong_json_kind(self, doc, where):
        with pytest.raises(ParseError, match=f"^{where} must be a JSON object$"):
            prior_from_dict(doc)

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_prior(tmp_path / "absent.json")


MODEL_DOC = {
    "outcomes": ["w1", "w2"],
    "prob": {"w1": "1/2", "w2": "1/2"},
    "partitions": {"a": [["w1"], ["w2"]]},
}


class TestEpistemicDocument:
    def test_round_trip(self):
        doc = {
            "outcomes": ["w1", "w2", "w3"],
            "prob": {"w1": "1/2", "w2": "1/4", "w3": "1/4"},
            "partitions": {"a": [["w1", "w2"], ["w3"]], "b": [["w1", "w2", "w3"]]},
        }
        model = epistemic_model_from_dict(doc)
        assert isinstance(model, EpistemicModel)
        back = epistemic_model_to_dict(model)
        assert back["prob"] == doc["prob"]
        assert back["partitions"]["a"] == [["w1", "w2"], ["w3"]]

    def test_int_labels_are_read_as_strings(self):
        doc = {
            "outcomes": [1, 2],
            "prob": {"1": "1/2", "2": "1/2"},
            "partitions": {"a": [[1], [2]]},
        }
        model = epistemic_model_from_dict(doc)
        assert model == EpistemicModel.make(
            {"1": F(1, 2), "2": F(1, 2)}, {"a": [["1"], ["2"]]}
        )

    def test_labels_that_collide_as_strings(self):
        doc = {
            "outcomes": [1, "1"],
            "prob": {"1": "1/2"},
            "partitions": {"a": [[1, "1"]]},
        }
        with pytest.raises(ParseError, match="'1' appears twice"):
            epistemic_model_from_dict(doc)

    @pytest.mark.parametrize("doc, where, kind", [
        ([MODEL_DOC], "model document", "object"),
        (dict(MODEL_DOC, prob=["1/2", "1/2"]), "model prob", "object"),
        (dict(MODEL_DOC, partitions=[["w1"], ["w2"]]), "model partitions", "object"),
        (dict(MODEL_DOC, outcomes="w1"), "model outcomes", "array"),
        (dict(MODEL_DOC, outcomes=2), "model outcomes", "array"),
        (dict(MODEL_DOC, partitions={"a": "w1"}), "partition of agent 'a'", "array"),
        (dict(MODEL_DOC, partitions={"a": ["w1", "w2"]}), "cell of agent 'a'", "array"),
    ])
    def test_wrong_json_kind(self, doc, where, kind):
        with pytest.raises(ParseError, match=f"^{where} must be a JSON {kind}$"):
            epistemic_model_from_dict(doc)

    def test_int_labelled_model_round_trips_through_json(self):
        model = EpistemicModel.make(
            {1: F(1, 2), 2: F(1, 4), 10: F(1, 4)}, {"a": [[1, 2], [10]], "b": [[1, 2, 10]]}
        )
        loaded = epistemic_model_from_dict(
            json.loads(json.dumps(epistemic_model_to_dict(model)))
        )
        assert loaded == EpistemicModel.make(
            {"1": F(1, 2), "2": F(1, 4), "10": F(1, 4)},
            {"a": [["1", "2"], ["10"]], "b": [["1", "2", "10"]]},
        )
        again = json.loads(json.dumps(epistemic_model_to_dict(loaded)))
        assert epistemic_model_from_dict(again) == loaded


class TestDegreeFiles:
    def test_plain_lines(self):
        assert parse_degree_sequence("3\n2\n\n1\n") == [3, 2, 1]

    def test_run_length(self):
        assert parse_degree_sequence("3 x 4\n1 x 0\n2x5\n") == [4, 4, 4, 0, 5, 5]

    def test_comments_skipped(self):
        assert parse_degree_sequence("# header\n2\n") == [2]

    def test_bad_line_diagnoses_position(self):
        with pytest.raises(ParseError, match=":2:"):
            parse_degree_sequence("1\nfour\n", source="degs")

    def test_empty_rejected(self):
        with pytest.raises(ParseError):
            parse_degree_sequence("# nothing\n")

    def test_run_length_checked_before_expansion(self):
        tracemalloc.start()
        try:
            with pytest.raises(SpaceTooLargeError) as info:
                parse_degree_sequence("3\n1000000000000x4\n")
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        assert str(info.value) == "graphs limited to 1000000 vertices, not 1000000000001"
        with pytest.raises(SpaceTooLargeError, match="not 1000001$"):
            parse_degree_sequence("2\n999999 x 4\n1x4\n")

    def test_a_million_entries_load(self, tmp_path):
        path = tmp_path / "degs.txt"
        path.write_text("2\n999998 x 4\n3\n")
        seq = load_degree_sequence(path)
        assert len(seq) == 1_000_000 and seq[:2] == [2, 4] and seq[-1] == 3

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "degs.txt"
        path.write_text(format_degree_sequence([4, 4, 1]))
        assert load_degree_sequence(path) == [4, 4, 1]


class TestEdgeLists:
    def test_parse(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.n == 3 and g.has_edge(0, 1)

    def test_declared_size(self):
        g = parse_edge_list("# n 5\n0 1\n")
        assert g.n == 5

    def test_round_trip(self, tmp_path):
        g = ConcreteGraph(4, [(0, 1), (2, 3)])
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(g))
        assert load_edge_list(path) == g

    def test_bad_line(self):
        with pytest.raises(ParseError, match=":1:"):
            parse_edge_list("0 1 2\n", source="edges")


class TestReports:
    def test_csv_schema(self):
        rows = [{"a": 1, "b": "x"}, {"a": 2}]
        text = rows_to_csv(rows, ("a", "b"))
        assert text == "a,b\n1,x\n2,\n"


@pytest.mark.parametrize("newline", ["\r\n", "\r"])
def test_crlf_files_read_as_lf(newline, tmp_path):
    # Input files are decoded with no newline translation; the line parsers
    # split with str.splitlines and JSON takes CR as whitespace, so each
    # loader gives the same answer, and the same line in an error, as on LF.
    texts = {
        "degrees.txt": ("# degrees\n3 x 2\n\n5\n", load_degree_sequence),
        "edges.txt": ("# n 4\n0 1\n1 2\n", load_edge_list),
        "prior.json": (json.dumps(MOTIVATING_DOC, indent=1), load_prior),
        "model.json": (json.dumps(MODEL_DOC, indent=1), load_epistemic_model),
        "bad.txt": ("4\n\nx 2 3\n", load_degree_sequence),
    }
    for name, (text, load) in texts.items():
        answers = []
        for suffix, body in (("lf", text), ("cr", text.replace("\n", newline))):
            path = tmp_path / f"{suffix}-{name}"
            path.write_bytes(body.encode())
            try:
                answers.append(load(path))
            except ParseError as exc:
                answers.append(str(exc).replace(str(path), "FILE"))
        assert answers[0] == answers[1], name
    assert answers[0].startswith("FILE:3: bad degree line 'x 2 3'")


REFUSALS = [
    pytest.param(lambda: parse_edge_list("0 x"), ParseError,
                 "<edges>:1: non-integer endpoint in '0 x'", id="edge-endpoint-not-integer"),
    pytest.param(lambda: parse_edge_list("# n abc\n0 1", source="g.txt"), ParseError,
                 "g.txt:1: vertex count in '# n abc' is not a nonnegative integer",
                 id="edge-header-count-not-integer"),
    pytest.param(lambda: parse_edge_list("0 1\n# n -3"), ParseError,
                 "<edges>:2: vertex count in '# n -3' is not a nonnegative integer",
                 id="edge-header-count-negative"),
    pytest.param(lambda: parse_degree_sequence("-2 x 3"), ParseError,
                 "<degrees>:1: bad degree line '-2 x 3' (negative count)",
                 id="degree-count-negative"),
    pytest.param(lambda: epistemic_model_from_dict({"outcomes": ["1"], "prob": {"1": "1"}}),
                 ParseError, "model document missing field 'partitions'",
                 id="model-without-partitions"),
    pytest.param(lambda: parse_rational(True), ParseError,
                 "refusing bool True; pass a rational string like '2/5'", id="rational-true"),
    pytest.param(lambda: parse_rational(False), ParseError,
                 "refusing bool False; pass a rational string like '2/5'", id="rational-false"),
    pytest.param(lambda: parse_rational("1/0"), ParseError, "bad rational '1/0': zero denominator",
                 id="rational-zero-denominator"),
    *(
        pytest.param(lambda text=text: parse_rational(text), ParseError,
                     f"bad rational {text!r}: not an integer, num/den or decimal",
                     id=f"rational-{name}")
        for name, text in [
            ("underscore", "1_000"), ("underscore-exponent", "1e1_000_000"),
            ("arabic-indic-digit", "\u0661/2"), ("fullwidth-digits", "\uff11\uff12"),
            ("signed-denominator", "1/+2"), ("spaced-slash", "1 / 2"), ("hex", "0x10"),
            ("point", "."), ("empty", ""), ("no-numerator", "/2"),
        ]
    ),
]

@pytest.mark.parametrize("call, error, message", REFUSALS)
def test_refusals(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
