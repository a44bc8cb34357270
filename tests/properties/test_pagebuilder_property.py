"""Property: for any page program, DPC assembly equals direct composition.

A "page program" is an arbitrary sequence of literal writes and block
emissions.  Rendering it plain (no cache) and rendering it through
BEM-template-then-DPC-assembly must produce identical bytes, on cold and
warm caches alike, for any interleaving — the page-writer-level statement
of the paper's correctness claim, written through ``ScriptContext``.
"""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.appserver import HttpRequest, ScriptContext, Session, SiteServices
from repro.core.bem import BackEndMonitor
from repro.core.dpc import DynamicProxyCache
from repro.core.tagging import TagRegistry
from repro.database import Database
from repro.network.latency import GenerationCostModel

BLOCK_NAMES = ["alpha", "beta", "gamma", "delta"]

content_text = st.text(
    alphabet=string.ascii_letters + string.digits + "<>~: \n", max_size=40
)

page_programs = st.lists(
    st.one_of(
        st.tuples(st.just("literal"), content_text, st.just(0)),
        st.tuples(
            st.just("block"),
            st.sampled_from(BLOCK_NAMES),
            st.integers(0, 3),  # parameter variant
        ),
    ),
    max_size=15,
)


def block_content(name: str, variant: int) -> str:
    return "[%s:%d]" % (name, variant)


def make_registry() -> TagRegistry:
    registry = TagRegistry()
    for name in BLOCK_NAMES[:-1]:
        registry.tag(name)
    # 'delta' stays untagged: the non-cacheable path must compose too.
    return registry


def write(program, registry, bem):
    """The response body of ``program`` written through a ScriptContext."""
    ctx = ScriptContext(
        HttpRequest("/x"),
        Session("s"),
        SiteServices(db=Database(), tags=registry),
        GenerationCostModel(),
        bem,
    )
    for kind, a, b in program:
        if kind == "literal":
            ctx.write(a)
        else:
            ctx.block(a, {"v": b}, lambda a=a, b=b: block_content(a, b))
    return ctx.response_body()


def render(program, registry, bem, dpc):
    body = write(program, registry, bem)
    if bem is None:
        return body
    return dpc.process_response(body).html


def render_plain(program):
    parts = []
    for kind, a, b in program:
        parts.append(a if kind == "literal" else block_content(a, b))
    return "".join(parts)


@given(page_programs)
@settings(max_examples=200)
def test_cold_assembly_equals_plain(program):
    registry = make_registry()
    bem = BackEndMonitor(capacity=64)
    dpc = DynamicProxyCache(capacity=64)
    assert render(program, registry, bem, dpc) == render_plain(program)


@given(page_programs, page_programs)
@settings(max_examples=150)
def test_warm_assembly_equals_plain(first, second):
    """The second program reuses whatever the first cached."""
    registry = make_registry()
    bem = BackEndMonitor(capacity=64)
    dpc = DynamicProxyCache(capacity=64)
    render(first, registry, bem, dpc)
    assert render(second, registry, bem, dpc) == render_plain(second)


@given(page_programs)
def test_no_cache_builder_matches_plain(program):
    assert write(program, make_registry(), None) == render_plain(program)
