"""Differential properties of the origin's wire writer.

``ScriptContext`` writes the response as wire text while blocks resolve:
a hit appends its GET tag, a miss its SET frame, and literal text (writes
and uncached blocks) collects as a run escaped once before the next tag.
:meth:`Template.serialize` of the same instruction stream is the oracle:

* with a monitor, the body equals ``Template(stream).serialize()`` for the
  stream of literals, GETs and SETs the old instruction-building writer
  produced (a generator's own writes and blocks land before its block's
  SET);
* without one, the body is the page's text, concatenated.

The page writer's one loop, :meth:`ScriptContext.write_blocks`, is also
checked against itself: a program written block by block (``block`` is a
plan of one) and as plans cut at random points, with and without each
item's fragment id, must leave the same body and bit-identical counters
and costs, also when a generator raises mid-plan.

Programs are random sequences of writes, hits, misses (some whose
generator writes text, a nested block or a nested plan of its own),
untagged blocks and non-cacheable blocks, with text heavy in ``<``, ``~``
and ``<~``.  Generators read table rows in proportion to their content,
so the database share of the cost is exercised too.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver import HttpRequest, ScriptContext, Session, SiteServices
from repro.core.fragments import FragmentID
from repro.core.tagging import TagRegistry
from repro.core.template import (
    GetInstruction,
    Literal,
    SetInstruction,
    Template,
    TemplateConfig,
    parse_template,
)
from repro.database import Database, schema
from repro.network.latency import GenerationCostModel

CONFIGS = [TemplateConfig(), TemplateConfig(key_width=2)]

text = st.lists(
    st.sampled_from(list("ab<~>Q:G09 é") + ["<~", "~>", "<~Q~>", "<~G:0001~>"]),
    max_size=8,
).map("".join)
#: dpcKeys every config can frame (``key_width=2`` tops out at 99).
keys = st.integers(min_value=0, max_value=99)
#: A cacheable block inside a generator: ``(hit or miss, key, content)``.
inner_block = st.tuples(st.sampled_from(["hit", "miss"]), keys, text)

steps = st.one_of(
    st.tuples(st.just("write"), text),
    st.tuples(st.just("hit"), keys, text),
    st.tuples(st.just("miss"), keys, text),
    st.tuples(st.just("nested"), keys, st.tuples(text, text)),
    st.tuples(st.just("nested_block"), keys, inner_block, text),
    st.tuples(
        st.just("nested_plan"),
        keys,
        st.lists(inner_block, min_size=1, max_size=3),
        text,
    ),
    st.tuples(st.just("untagged"), text),
    st.tuples(st.just("nocache"), text),
)

#: How one step is written in the planned form: whether a plan ends before
#: it, and whether its item carries its fragment id.
layouts = st.tuples(st.booleans(), st.booleans())


class Boom(Exception):
    """What the raising step's generator throws."""


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
    db = Database()
    table = db.create_table(schema("t", [("k", "int")]))
    for k in range(4):
        table.insert({"k": k})
    return ScriptContext(
        HttpRequest("/x"),
        Session("s"),
        SiteServices(db=db, tags=tags),
        GenerationCostModel(),
        monitor,
    )


def _reading(ctx, content):
    """A generator that reads ``len(content) % 3`` rows, then returns
    ``content``."""

    def generate():
        table = ctx.services.db.table("t")
        for k in range(len(content) % 3):
            table.get(k)
        return content

    return generate


def _inner_plan(ctx, tag, inner):
    """Write ``inner`` as one plan."""
    ctx.write_blocks([
        ("cached", {"i": "%s.%d" % (tag, j)}, None, _reading(ctx, content))
        for j, (_, _, content) in enumerate(inner)
    ])


def write(program, monitor, layout=None):
    """Run ``program`` through a context; returns the context, the oracle
    instruction stream and the plain page text.

    With ``layout`` (one :data:`layouts` entry per step) the blocks are
    written as plans, cut where the layout says and at every write;
    without it, one ``block`` call per block.  A ``("raise", cacheable)``
    step stops the program, as far as it got, with :class:`Boom`.
    """
    ctx = _context(monitor)
    stream = []
    plain = []
    script = []
    ops = []  # texts and (name, params, zero-argument generator), in page order
    for index, step in enumerate(program):
        kind = step[0]
        if kind == "write":
            ops.append(step[1])
            stream.append(Literal(step[1]))
            plain.append(step[1])
        elif kind in ("untagged", "nocache"):
            name = "mystery" if kind == "untagged" else "banner"
            ops.append((name, {"i": index}, _reading(ctx, step[1])))
            stream.append(Literal(step[1]))
            plain.append(step[1])
        elif kind == "raise":

            def generate():
                raise Boom()

            if step[1]:
                script.append(("miss", 0))
            ops.append(("cached" if step[1] else "banner", {"i": index}, generate))
        elif kind == "nested":
            key, (inner, content) = step[1], step[2]

            def generate(inner=inner, content=content):
                ctx.write(inner)
                return content

            script.append(("miss", key))
            ops.append(("cached", {"i": index}, generate))
            stream.append(Literal(inner))
            stream.append(SetInstruction(key, content))
            plain.append(inner + content)
        elif kind in ("nested_block", "nested_plan"):
            key, content = step[1], step[-1]
            inner = [step[2]] if kind == "nested_block" else step[2]
            script.append(("miss", key))
            if kind == "nested_block":
                inner_kind, inner_key, inner_content = step[2]

                def generate(index=index, inner_content=inner_content, content=content):
                    ctx.block(
                        "cached", {"i": "%d.0" % index}, _reading(ctx, inner_content)
                    )
                    return _reading(ctx, content)()

            else:

                def generate(index=index, inner=inner, content=content):
                    _inner_plan(ctx, index, inner)
                    return _reading(ctx, content)()

            ops.append(("cached", {"i": index}, generate))
            for inner_kind, inner_key, inner_content in inner:
                script.append((inner_kind, inner_key))
                stream.append(
                    GetInstruction(inner_key) if inner_kind == "hit"
                    else SetInstruction(inner_key, inner_content)
                )
                plain.append(inner_content)
            stream.append(SetInstruction(key, content))
            plain.append(content)
        else:
            key, content = step[1], step[2]
            script.append((kind, key))
            ops.append(("cached", {"i": index}, _reading(ctx, content)))
            stream.append(
                GetInstruction(key) if kind == "hit"
                else SetInstruction(key, content)
            )
            plain.append(content)
    if monitor is not None:
        # Without a monitor every block runs inline and nothing is popped.
        monitor.script.extend(script)
    try:
        if layout is None:
            for op in ops:
                if isinstance(op, str):
                    ctx.write(op)
                else:
                    ctx.block(*op)
        else:
            _write_planned(ctx, ops, layout)
    except Boom:
        pass
    return ctx, stream, "".join(plain)


def _write_planned(ctx, ops, layout):
    """Write ``ops`` as plans cut where ``layout`` says."""
    plan = []

    def flush():
        if plan:
            ctx.write_blocks(list(plan))
            plan.clear()

    for op, (cut, pass_id) in zip(ops, layout):
        if isinstance(op, str):
            flush()
            ctx.write(op)
            continue
        if cut:
            flush()
        name, params, generate = op
        fragment_id = FragmentID.create(name, params) if pass_id else None
        plan.append((name, params, fragment_id, generate))
    flush()


def counters(ctx):
    """Everything the writer accounts, compared exactly (floats by bits)."""
    return (
        ctx.response_body(),
        ctx.blocks,
        ctx.hits,
        ctx.misses,
        ctx.generated_bytes,
        ctx.db_rows,
        ctx.generation_cost_s.hex(),
        ctx.db_cost_s.hex(),
    )


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


@st.composite
def planned_programs(draw):
    """A program, possibly with one raising step, and a layout for it."""
    program = draw(st.lists(steps, max_size=14))
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(program)))
        program.insert(at, ("raise", draw(st.booleans())))
    layout = draw(st.lists(layouts, min_size=len(program), max_size=len(program)))
    return program, layout


@given(st.sampled_from(CONFIGS + [None]), planned_programs())
@settings(max_examples=400, deadline=None)
def test_plans_write_what_blocks_write(config, planned):
    program, layout = planned

    def monitor():
        return None if config is None else ScriptedMonitor(config)

    by_block, _, _ = write(program, monitor())
    by_plan, _, _ = write(program, monitor(), layout)
    assert counters(by_plan) == counters(by_block)


def test_a_raising_generator_leaves_the_page_as_written():
    monitor = ScriptedMonitor(TemplateConfig())
    monitor.script.extend([("hit", 4), ("miss", 5)])
    ctx = _context(monitor)
    ctx.write("a<")

    def boom():
        raise Boom()

    try:
        ctx.write_blocks([
            ("cached", {"i": 0}, None, lambda: "never"),
            ("banner", {}, None, lambda: "~b"),
            ("cached", {"i": 1}, None, boom),
            ("cached", {"i": 2}, None, lambda: "not reached"),
        ])
    except Boom:
        pass
    assert (ctx.blocks, ctx.hits, ctx.misses) == (3, 1, 0)
    assert ctx.response_body() == "a<<~G:0004~>~b"


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
