"""Prompt rendering for fine-tuning files and zero-shot LLM inputs.

Prompt strings are byte-exact constants, trailing space included: the
prompt text is tokenizer-visible, so nothing here trims or reflows. Every
render is prefix-only, which makes stripping a rendered prompt a lossless
round trip.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .corpus import TaskLabel
from .readability import ComplexityLevel, Scheme, cefr6_to_cefr3

__all__ = [
    "Strategy",
    "PromptSpec",
    "render",
    "render_record",
    "strip_prompt",
    "REL_PROMPTS",
    "BASELINE_PROMPT",
]

REL_PROMPTS = {
    TaskLabel.DOWN: "level down: ",
    TaskLabel.UP: "level up: ",
    TaskLabel.SAME: "same level: ",
}
ABS_TEMPLATE = "change to level {level}: "
BASELINE_PROMPT = "paraphrase: "

LLM_REL_PROMPTS = {
    TaskLabel.DOWN: "Please rewrite the following text to a less advanced English level: ",
    TaskLabel.UP: "Please rewrite the following text to a more advanced English level: ",
    TaskLabel.SAME: "Please rewrite the following text to the same English level: ",
}
LLM_ABS_TEMPLATE = "Please rewrite the following text so that its {metric} level is {level}: "
LLM_ABS_METRICS = {Scheme.FKGL: "FKGL", Scheme.CEFR6: "CEFR", Scheme.CEFR3: "CEFR"}  # no Newsela


class Strategy(str, Enum):
    RELATIVE = "rel"
    ABSOLUTE = "abs"
    BASELINE = "baseline"
    LLM_RELATIVE = "llm-rel"
    LLM_ABSOLUTE = "llm-abs"


def _abs_level_token(level: ComplexityLevel) -> str:
    """The X slot: CEFR collapses to A/B/C, FKGL is 2-dp, Newsela 0-4."""
    if level.scheme is Scheme.CEFR6:
        return cefr6_to_cefr3(level).label
    return level.label


@dataclass(frozen=True)
class PromptSpec:
    strategy: Strategy
    task: Optional[TaskLabel] = None
    target_level: Optional[ComplexityLevel] = None

    def __post_init__(self) -> None:
        if self.strategy in (Strategy.RELATIVE, Strategy.LLM_RELATIVE):
            if self.task is None:
                raise ValueError(f"{self.strategy.value} prompting requires a task")
        if self.strategy in (Strategy.ABSOLUTE, Strategy.LLM_ABSOLUTE):
            if self.target_level is None:
                raise ValueError(f"{self.strategy.value} prompting requires a target level")
            if self.strategy is Strategy.LLM_ABSOLUTE and self.target_level.scheme not in LLM_ABS_METRICS:
                raise ValueError("llm-abs prompting names an FKGL or CEFR level, not a newsela one")
            if self.task is TaskLabel.SAME and self.strategy is Strategy.ABSOLUTE:
                raise ValueError(
                    "absolute prompting is not trained for single-task same-level data"
                )

    @property
    def prefix(self) -> str:
        if self.strategy is Strategy.BASELINE:
            return BASELINE_PROMPT
        if self.strategy is Strategy.RELATIVE:
            return REL_PROMPTS[self.task]
        if self.strategy is Strategy.LLM_RELATIVE:
            return LLM_REL_PROMPTS[self.task]
        level = _abs_level_token(self.target_level)
        if self.strategy is Strategy.ABSOLUTE:
            return ABS_TEMPLATE.format(level=level)
        return LLM_ABS_TEMPLATE.format(metric=LLM_ABS_METRICS[self.target_level.scheme], level=level)


def render(spec: PromptSpec, text: str) -> str:
    """Prepend the spec's exact prompt string to ``text``."""
    return spec.prefix + text


def strip_prompt(rendered: str, spec: PromptSpec) -> str:
    """Inverse of render for a known spec; errors if the prefix is absent."""
    prefix = spec.prefix
    if not rendered.startswith(prefix):
        raise ValueError(f"text does not start with prompt prefix {prefix!r}")
    return rendered[len(prefix):]


def render_record(
    record: dict,
    strategy: Strategy,
    scheme: Scheme,
    fixed_level: Optional[ComplexityLevel] = None,
) -> dict:
    """The prompted (input, output) record of one dataset record.

    A record carries string source/target plus target_level and task
    fields. Under ABS training, X is the record's own target level; passing
    ``fixed_level`` switches to inference mode, where one X is used for
    every record. Relative strategies read the record's task label. A
    record that cannot be rendered is a ValueError.
    """
    if strategy in (Strategy.ABSOLUTE, Strategy.LLM_ABSOLUTE):
        level = fixed_level
        if level is None:
            raw = record.get("target_level")
            if raw is None:
                raise ValueError("absolute prompting needs a target_level field")
            level = ComplexityLevel.parse(scheme, raw)
        spec = PromptSpec(strategy, target_level=level)
    elif strategy in (Strategy.RELATIVE, Strategy.LLM_RELATIVE):
        task = record.get("task")
        if task is None:
            raise ValueError("relative prompting needs a task field")
        spec = PromptSpec(strategy, task=TaskLabel(task))
    else:
        spec = PromptSpec(strategy)
    source, target = record.get("source"), record.get("target")
    if not isinstance(source, str) or not isinstance(target, str):
        raise ValueError('need string "source" and "target"')
    return {"input_prompted": render(spec, source), "output": target}
