"""Differential properties of the origin's wire writer.

``ScriptContext`` writes the response as wire text while blocks resolve:
a hit appends its GET tag, a miss its SET frame, and literal text (writes
and uncached blocks) collects as a run escaped once before the next tag.
:meth:`Template.serialize` of the same instruction stream is the oracle:

* with a monitor, the body equals ``Template(stream).serialize()`` for the
  stream of literals, GETs and SETs the old instruction-building writer
  produced (a generator's own writes land before its block's SET);
* without one, the body is the page's text, concatenated.

Programs are random sequences of writes, hits, misses (some whose
generator writes text of its own), untagged blocks and non-cacheable
blocks, with text heavy in ``<``, ``~`` and ``<~``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver import HttpRequest, ScriptContext, Session, SiteServices
from repro.core.tagging import TagRegistry
from repro.core.template import (
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    TemplateConfig,
    parse_template,
)
from repro.database import Database
from repro.network.latency import GenerationCostModel

CONFIGS = [TemplateConfig(), TemplateConfig(key_width=2)]

text = st.lists(
    st.sampled_from(list("ab<~>Q:G09 é") + ["<~", "~>", "<~Q~>", "<~G:0001~>"]),
    max_size=8,
).map("".join)
#: dpcKeys every config can frame (``key_width=2`` tops out at 99).
keys = st.integers(min_value=0, max_value=99)

steps = st.one_of(
    st.tuples(st.just("write"), text),
    st.tuples(st.just("hit"), keys, text),
    st.tuples(st.just("miss"), keys, text),
    st.tuples(st.just("nested"), keys, st.tuples(text, text)),
    st.tuples(st.just("untagged"), text),
    st.tuples(st.just("nocache"), text),
)


class ScriptedMonitor:
    """A block monitor whose hits and misses follow a script.

    Each ``process_block`` call pops the next ``(kind, key)``: a hit
    returns the GET, a miss describes the block, runs its generator and
    returns the SET, as the BEM's protocol does.
    """

    def __init__(self, config):
        self.template_config = config
        self.script = []

    def process_block(self, fragment_id, describe, generate):
        kind, key = self.script.pop(0)
        if kind == "hit":
            return GetInstruction(key)
        describe()
        return SetInstruction(key, generate())


def _context(monitor):
    tags = TagRegistry()
    tags.tag("cached")
    tags.tag("banner", cacheable=False)
    return ScriptContext(
        HttpRequest("/x"),
        Session("s"),
        SiteServices(db=Database(), tags=tags),
        GenerationCostModel(),
        monitor,
    )


def write(program, monitor):
    """Run ``program`` through a context; returns the context, the oracle
    instruction stream and the plain page text."""
    ctx = _context(monitor)
    stream = []
    plain = []
    for index, step in enumerate(program):
        kind = step[0]
        if kind == "write":
            ctx.write(step[1])
            stream.append(Literal(step[1]))
            plain.append(step[1])
        elif kind in ("untagged", "nocache"):
            name = "mystery" if kind == "untagged" else "banner"
            ctx.block(name, {"i": index}, lambda content=step[1]: content)
            stream.append(Literal(step[1]))
            plain.append(step[1])
        elif kind == "nested":
            key, (inner, content) = step[1], step[2]

            def generate(inner=inner, content=content):
                ctx.write(inner)
                return content

            if monitor is not None:
                monitor.script.append(("miss", key))
            ctx.block("cached", {"i": index}, generate)
            stream.append(Literal(inner))
            stream.append(SetInstruction(key, content))
            plain.append(inner + content)
        else:
            key, content = step[1], step[2]
            if monitor is not None:
                monitor.script.append((kind, key))
            ctx.block("cached", {"i": index}, lambda content=content: content)
            stream.append(
                GetInstruction(key) if kind == "hit"
                else SetInstruction(key, content)
            )
            plain.append(content)
    return ctx, stream, "".join(plain)


@given(st.sampled_from(CONFIGS), st.lists(steps, max_size=14))
@settings(max_examples=400, deadline=None)
def test_body_equals_serialize_of_the_same_stream(config, program):
    ctx, stream, _ = write(program, ScriptedMonitor(config))
    body = ctx.response_body()
    assert body == Template(stream, config).serialize()
    assert ctx.template == parse_template(body, config)


@given(st.lists(steps, max_size=14))
@settings(max_examples=300, deadline=None)
def test_plain_body_is_the_concatenated_text(program):
    ctx, _, plain = write(program, None)
    assert ctx.response_body() == plain
    assert ctx.template.instructions == ([Literal(plain)] if plain else [])


def test_sentinel_split_across_two_writes_is_escaped():
    ctx = _context(ScriptedMonitor(TemplateConfig()))
    ctx.write("a<").write("~b")
    assert ctx.response_body() == "a<~Q~>b"


def test_sentinel_split_across_a_write_and_an_untagged_block_is_escaped():
    monitor = ScriptedMonitor(TemplateConfig())
    monitor.script.append(("hit", 7))
    ctx = _context(monitor)
    ctx.write("x<")
    ctx.block("mystery", {}, lambda: "~y")
    ctx.block("cached", {}, lambda: "never")
    ctx.write("<")
    ctx.block("banner", {}, lambda: "~")
    assert ctx.response_body() == "x<~Q~>y<~G:0007~><~Q~>"


def test_reading_the_body_leaves_the_literal_run_open():
    """A body read mid-page must not cut the run: a sentinel completed by
    a later write is still escaped."""
    ctx = _context(ScriptedMonitor(TemplateConfig()))
    ctx.write("<")
    assert ctx.response_body() == ctx.response_body() == "<"
    assert ctx.template.instructions == [Literal("<")]
    ctx.write("~")
    assert ctx.response_body() == "<~Q~>"
