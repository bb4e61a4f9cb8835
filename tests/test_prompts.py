import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelforge.corpus import TaskLabel
from levelforge.prompts import (
    BASELINE_PROMPT,
    REL_PROMPTS,
    PromptSpec,
    Strategy,
    render,
    render_record,
    strip_prompt,
)
from levelforge.readability import ComplexityLevel, Scheme

ALL_SPECS = [
    PromptSpec(Strategy.RELATIVE, task=TaskLabel.DOWN),
    PromptSpec(Strategy.RELATIVE, task=TaskLabel.UP),
    PromptSpec(Strategy.RELATIVE, task=TaskLabel.SAME),
    PromptSpec(Strategy.ABSOLUTE, target_level=ComplexityLevel.parse(Scheme.CEFR6, "B2")),
    PromptSpec(Strategy.ABSOLUTE, target_level=ComplexityLevel(Scheme.FKGL, 5.25)),
    PromptSpec(Strategy.ABSOLUTE, target_level=ComplexityLevel(Scheme.NEWSELA, 2)),
    PromptSpec(Strategy.BASELINE),
    PromptSpec(Strategy.LLM_RELATIVE, task=TaskLabel.DOWN),
    PromptSpec(Strategy.LLM_RELATIVE, task=TaskLabel.UP),
    PromptSpec(Strategy.LLM_RELATIVE, task=TaskLabel.SAME),
    PromptSpec(Strategy.LLM_ABSOLUTE, target_level=ComplexityLevel.parse(Scheme.CEFR6, "C1")),
    PromptSpec(Strategy.LLM_ABSOLUTE, target_level=ComplexityLevel(Scheme.FKGL, 6.0)),
]


class TestPromptConstants:
    def test_rel_prefixes_byte_exact(self):
        assert REL_PROMPTS[TaskLabel.DOWN] == "level down: "
        assert REL_PROMPTS[TaskLabel.UP] == "level up: "
        assert REL_PROMPTS[TaskLabel.SAME] == "same level: "
        assert BASELINE_PROMPT == "paraphrase: "

    def test_abs_prefix_cefr_collapses(self):
        spec = PromptSpec(Strategy.ABSOLUTE, target_level=ComplexityLevel.parse(Scheme.CEFR6, "B2"))
        assert spec.prefix == "change to level B: "

    def test_abs_prefix_fkgl_two_decimals(self):
        spec = PromptSpec(Strategy.ABSOLUTE, target_level=ComplexityLevel(Scheme.FKGL, 5.2))
        assert spec.prefix == "change to level 5.20: "

    def test_abs_prefix_newsela(self):
        spec = PromptSpec(Strategy.ABSOLUTE, target_level=ComplexityLevel(Scheme.NEWSELA, 3))
        assert spec.prefix == "change to level 3: "

    def test_llm_rel_prefixes(self):
        down = PromptSpec(Strategy.LLM_RELATIVE, task=TaskLabel.DOWN)
        up = PromptSpec(Strategy.LLM_RELATIVE, task=TaskLabel.UP)
        same = PromptSpec(Strategy.LLM_RELATIVE, task=TaskLabel.SAME)
        assert down.prefix == (
            "Please rewrite the following text to a less advanced English level: "
        )
        assert up.prefix == (
            "Please rewrite the following text to a more advanced English level: "
        )
        assert same.prefix == (
            "Please rewrite the following text to the same English level: "
        )

    def test_llm_abs_prefixes(self):
        cefr = PromptSpec(Strategy.LLM_ABSOLUTE, target_level=ComplexityLevel.parse(Scheme.CEFR6, "C1"))
        fkgl = PromptSpec(Strategy.LLM_ABSOLUTE, target_level=ComplexityLevel(Scheme.FKGL, 6.0))
        cefr3 = PromptSpec(Strategy.LLM_ABSOLUTE, target_level=ComplexityLevel.parse(Scheme.CEFR3, "A"))
        assert cefr.prefix == (
            "Please rewrite the following text so that its CEFR level is C: "
        )
        assert cefr3.prefix == "Please rewrite the following text so that its CEFR level is A: "
        assert fkgl.prefix == (
            "Please rewrite the following text so that its FKGL level is 6.00: "
        )

    def test_all_prefixes_end_with_space(self):
        for spec in ALL_SPECS:
            assert spec.prefix.endswith(": ")


class TestPromptSpecValidation:
    def test_relative_needs_task(self):
        with pytest.raises(ValueError):
            PromptSpec(Strategy.RELATIVE)

    def test_absolute_needs_level(self):
        with pytest.raises(ValueError):
            PromptSpec(Strategy.ABSOLUTE)

    def test_absolute_same_task_rejected(self):
        with pytest.raises(ValueError):
            PromptSpec(
                Strategy.ABSOLUTE,
                task=TaskLabel.SAME,
                target_level=ComplexityLevel.parse(Scheme.CEFR6, "B1"),
            )


    def test_llm_absolute_names_no_newsela_level(self):
        # Its template names a level as FKGL or CEFR; a Newsela level is neither.
        with pytest.raises(ValueError, match="not a newsela one"):
            PromptSpec(Strategy.LLM_ABSOLUTE, target_level=ComplexityLevel(Scheme.NEWSELA, 3))


class TestRenderAndStrip:
    def test_render_prepends_only(self):
        spec = PromptSpec(Strategy.RELATIVE, task=TaskLabel.DOWN)
        assert render(spec, "Hello.") == "level down: Hello."

    @given(st.text(max_size=200), st.sampled_from(ALL_SPECS))
    @settings(max_examples=100, deadline=None)
    def test_round_trip(self, text, spec):
        assert strip_prompt(render(spec, text), spec) == text

    def test_strip_wrong_prefix(self):
        spec = PromptSpec(Strategy.RELATIVE, task=TaskLabel.UP)
        with pytest.raises(ValueError):
            strip_prompt("level down: text", spec)


class TestRenderDataset:
    """render_record on dataset records; cmd_prompt adds the file and line."""

    LINES = [
        {"source": "A complex sentence.", "target": "A simple one.",
         "task": "down", "target_level": "A2"},
        {"source": "A simple one.", "target": "A complex sentence.",
         "task": "up", "target_level": "C1"},
    ]

    def render_all(self, strategy, fixed_level=None):
        return [render_record(r, strategy, Scheme.CEFR6, fixed_level) for r in self.LINES]

    def test_relative_uses_line_task(self):
        out = self.render_all(Strategy.RELATIVE)
        assert out[0]["input_prompted"] == "level down: A complex sentence."
        assert out[1]["input_prompted"] == "level up: A simple one."
        assert out[0]["output"] == "A simple one."

    def test_absolute_uses_line_level(self):
        out = self.render_all(Strategy.ABSOLUTE)
        assert out[0]["input_prompted"] == "change to level A: A complex sentence."
        assert out[1]["input_prompted"] == "change to level C: A simple one."

    def test_absolute_fixed_level_inference(self):
        out = self.render_all(Strategy.ABSOLUTE, fixed_level=ComplexityLevel.parse(Scheme.CEFR6, "B1"))
        assert all(r["input_prompted"].startswith("change to level B: ") for r in out)

    def test_baseline_ignores_fields(self):
        out = self.render_all(Strategy.BASELINE)
        assert all(r["input_prompted"].startswith("paraphrase: ") for r in out)

    @pytest.mark.parametrize(
        "record, strategy, message",
        [
            ({"source": "x y z", "target": "z y x"}, Strategy.RELATIVE,
             "relative prompting needs a task field"),
            ({"source": "x y z", "target": "z y x"}, Strategy.ABSOLUTE,
             "absolute prompting needs a target_level field"),
            ({"source": "x y z", "target": "z y x", "task": "sideways"}, Strategy.RELATIVE,
             "'sideways' is not a valid TaskLabel"),
            ({"source": "x y z", "target": "z y x", "target_level": "Q"}, Strategy.ABSOLUTE,
             "bad cefr6 level 'Q'"),
            ({"target": "z y x"}, Strategy.BASELINE, 'need string "source" and "target"'),
            ({"source": "x y z", "target": 5}, Strategy.BASELINE,
             'need string "source" and "target"'),
        ],
        ids=["missing-task", "missing-level", "bad-task", "bad-level", "missing-source",
             "non-string-target"],
    )
    def test_unrenderable_record_rejected(self, record, strategy, message):
        with pytest.raises(ValueError) as exc:
            render_record(record, strategy, Scheme.CEFR6)
        assert str(exc.value) == message
