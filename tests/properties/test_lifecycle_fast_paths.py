"""Properties of the fragment lifecycle's fast paths.

* ``GenerationCostModel.block_costs`` returns, in one call, exactly (``==``,
  not approximately) the two costs the block path used to get from
  ``block_generation_cost`` and a second ``db_block_cost`` call.  The
  reference functions below are those two methods' float arithmetic, in
  their order; the public methods must keep their results too.
* ``TemplateConfig.frame_tags`` memoizes each dpcKey's ``(SET, END)`` frame
  exactly as ``format_key`` frames it, and rejects a key out of range with
  ``ConfigurationError`` without storing anything.
* ``TableSchema.column`` is a dict probe with the linear scan's results
  and its ``SchemaError`` message for an unknown column.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.template import TemplateConfig
from repro.database import Table, schema
from repro.errors import ConfigurationError, SchemaError
from repro.network.latency import FREE, GenerationCostModel


def reference_db_cost(model, db_rows, needs_db_connection):
    cost = 0.0
    if needs_db_connection:
        cost += model.db_connection_wait_s
    cost += db_rows * model.db_row_cost_s
    return cost


def reference_generation_cost(
    model, output_bytes, db_rows, cross_tier_hops, needs_db_connection
):
    cost = model.block_overhead_s
    cost += cross_tier_hops * model.cross_tier_hop_s
    cost += reference_db_cost(model, db_rows, needs_db_connection)
    cost += output_bytes * model.compute_per_byte_s
    cost += output_bytes * model.conversion_per_byte_s
    return cost


def assert_costs_match(model, output_bytes, rows, hops, needs):
    generation = reference_generation_cost(model, output_bytes, rows, hops, needs)
    db = reference_db_cost(model, rows, needs)
    assert model.block_costs(output_bytes, rows, hops, needs) == (generation, db)
    assert model.block_generation_cost(output_bytes, rows, hops, needs) == generation
    assert model.db_block_cost(rows, needs) == db


@pytest.mark.parametrize("model", [GenerationCostModel(), FREE], ids=["default", "free"])
@pytest.mark.parametrize("output_bytes", [0, 1, 1 << 20])
@pytest.mark.parametrize("rows", [0, 1, 10_000])
@pytest.mark.parametrize("hops", [1, 2])
def test_fused_block_costs_equal_the_two_calls(model, output_bytes, rows, hops):
    # The block path passes ``needs_db_connection=rows > 0``; both values
    # are checked for every row count.
    for needs in (False, True):
        assert_costs_match(model, output_bytes, rows, hops, needs)


rates = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(
    st.builds(
        GenerationCostModel,
        compute_per_byte_s=rates,
        block_overhead_s=rates,
        cross_tier_hop_s=rates,
        db_connection_wait_s=rates,
        db_row_cost_s=rates,
        conversion_per_byte_s=rates,
    ),
    st.integers(0, 1 << 24),
    st.integers(0, 1 << 20),
    st.integers(0, 5),
    st.booleans(),
)
def test_fused_block_costs_equal_the_two_calls_on_any_model(
    model, output_bytes, rows, hops, needs
):
    assert_costs_match(model, output_bytes, rows, hops, needs)


@pytest.mark.parametrize("width", [1, 4, 6])
def test_frame_tags_match_format_key(width):
    config = TemplateConfig(key_width=width)
    for key in (0, 1, config.max_key):
        text = config.format_key(key)
        assert config.frame_tags[key] == ("<~S:" + text + "~>", "<~E:" + text + "~>")
        assert config.frame_tags[key] is config.frame_tags[key]
        assert len(config.frame_tags[key][0]) == config.tag_size
    for key in (-1, config.max_key + 1):
        with pytest.raises(ConfigurationError):
            config.frame_tags[key]
        assert key not in config.frame_tags


names = st.sampled_from(["a", "b", "c_d", "e1"])


@given(st.lists(names, min_size=1, max_size=4, unique=True), names)
def test_column_lookup_matches_the_scan(declared, probe):
    table_schema = schema("t", [(name, "int") for name in declared])
    by_scan = [column for column in table_schema.columns if column.name == probe]
    assert table_schema.has_column(probe) == bool(by_scan)
    if by_scan:
        assert table_schema.column(probe) is by_scan[0]
    else:
        with pytest.raises(SchemaError) as error:
            table_schema.column(probe)
        assert str(error.value) == "table 't' has no column %r" % probe


def test_unknown_column_in_an_update_keeps_its_message():
    table = Table(schema("t", [("id", "int"), ("v", "int")]))
    table.insert({"id": 1, "v": 0})
    for key in (1, 2):  # an existing row and a missing one
        with pytest.raises(SchemaError) as error:
            table.update({"zz": 1}, key=key)
        assert str(error.value) == "table 't' has no column 'zz'"
    assert table.get(1) == {"id": 1, "v": 0}
