"""Server-side delay model for dynamic content generation (Section 2.2).

The paper classifies the delays in serving a dynamic page:

* **Computational delays** — executing logic (query processing, script code).
* **Interaction bottlenecks** — waiting for a resource such as a DBMS
  connection.
* **Cross-tier communication** — network protocol stack traversal between
  application components (JSP -> Servlet -> CMS -> JDBC -> DBMS).
* **Object creation and destruction** — repeated allocation in OO servers.
* **Content conversion** — XML-to-HTML transformation, formatting.

:class:`GenerationCostModel` assigns a virtual-time cost to each category so
that the testbed can report end-to-end response times and the case-study
bench can reproduce the paper's order-of-magnitude response-time claim.
The defaults are loosely calibrated to 2002-era hardware; the *ratios*
between cached and uncached paths are what matter, not absolute values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class GenerationCostModel:
    """Per-operation virtual-time costs for the origin-site pipeline."""

    #: Fixed cost to dispatch a request into the application server
    #: (session processing: router, firewall, switch, web server).
    request_dispatch_s: float = 0.002

    #: Cost of executing one tagged/untagged code block's business logic,
    #: per generated byte (computational delay).
    compute_per_byte_s: float = 2e-6

    #: Fixed cost per code block regardless of output size (object
    #: creation/destruction, script interpretation).
    block_overhead_s: float = 0.001

    #: Cost of one cross-tier hop (e.g. Servlet -> CMS, CMS -> DBMS):
    #: protocol stack traversal in connectivity software.
    cross_tier_hop_s: float = 0.0015

    #: Cost of waiting for a DBMS connection (interaction bottleneck).
    db_connection_wait_s: float = 0.003

    #: Cost per row touched by a query (query processing).
    db_row_cost_s: float = 5e-5

    #: Content conversion/formatting cost per output byte.
    conversion_per_byte_s: float = 5e-7

    #: BEM cache-directory lookup cost (a hash probe).
    directory_lookup_s: float = 5e-6

    #: DPC slot read/write cost per fragment operation.
    dpc_slot_op_s: float = 1e-5

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:  # noqa: B007 - names only
            if getattr(self, name) < 0:
                raise ConfigurationError("%s cannot be negative" % name)

    # -- composite costs ------------------------------------------------------

    def block_costs(
        self,
        output_bytes: int,
        db_rows: int = 0,
        cross_tier_hops: int = 2,
        needs_db_connection: bool = True,
    ) -> Tuple[float, float]:
        """One block's ``(generation cost, database share)``, in one call.

        The generation cost mirrors the Figure 1 workflow: presentation ->
        business logic -> CMS -> data access -> DBMS, then conversion of
        results to HTML.  The database share (connection wait plus per-row
        charges) is part of it, and is returned on its own so tracing can
        attribute it to a ``db.query`` span separately from pure compute.
        :meth:`block_generation_cost` and :meth:`db_block_cost` are its two
        halves.
        """
        db = 0.0
        if needs_db_connection:
            db += self.db_connection_wait_s
        db += db_rows * self.db_row_cost_s
        cost = self.block_overhead_s
        cost += cross_tier_hops * self.cross_tier_hop_s
        cost += db
        cost += output_bytes * self.compute_per_byte_s
        cost += output_bytes * self.conversion_per_byte_s
        return cost, db

    def block_generation_cost(
        self,
        output_bytes: int,
        db_rows: int = 0,
        cross_tier_hops: int = 2,
        needs_db_connection: bool = True,
    ) -> float:
        """Cost to *generate* one fragment's content from scratch."""
        return self.block_costs(
            output_bytes, db_rows, cross_tier_hops, needs_db_connection
        )[0]

    def db_block_cost(
        self, db_rows: int, needs_db_connection: bool = True
    ) -> float:
        """The database share of one block's generation cost."""
        return self.block_costs(0, db_rows, 0, needs_db_connection)[1]

    def block_hit_cost(self) -> float:
        """Cost when the BEM finds the fragment valid in its directory.

        The block's body is skipped entirely; only the directory probe and
        the GET-tag emission remain.
        """
        return self.directory_lookup_s

    def assembly_cost(self, fragments_inserted: int) -> float:
        """DPC-side cost to splice cached fragments into a template."""
        return fragments_inserted * self.dpc_slot_op_s


#: A zero-cost model: useful for tests that only care about byte counts.
FREE = GenerationCostModel(
    request_dispatch_s=0.0,
    compute_per_byte_s=0.0,
    block_overhead_s=0.0,
    cross_tier_hop_s=0.0,
    db_connection_wait_s=0.0,
    db_row_cost_s=0.0,
    conversion_per_byte_s=0.0,
    directory_lookup_s=0.0,
    dpc_slot_op_s=0.0,
)
