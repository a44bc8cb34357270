"""The application server: request dispatch, script execution, response build.

Plays the role of IIS + the ASP engine in the paper's testbed.  One server
instance runs in exactly one of three modes:

* **plain** (``bem=None``) — every block executes; the response body is
  the full page.  This is the paper's baseline configuration.
* **dpc** (``bem`` set) — tagged blocks run the §4.3.2 protocol; the
  response body is the serialized page template, framed with the BEM's
  ``template_config`` (so the dpcKey width always matches its DPC's).
* **backend** (``bem`` and ``origin_dpc`` set) — the same protocol, but the
  DPC sits inside the site: the origin assembles the template itself and
  ships the full page.  This is the back-end fragment cache of §3.1, which
  saves computation and no bandwidth.

In every mode, ``handle()`` returns an :class:`HttpResponse` whose ``meta``
records what happened (mode, hit/miss counts, virtual generation time), so
the harness can account bytes and latency without reaching into internals.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..core.bem import BackEndMonitor
from ..core.dpc import DynamicProxyCache
from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    OverloadError,
    ScriptError,
)
from ..network.clock import SimulatedClock
from ..network.latency import GenerationCostModel
from ..telemetry.tracing import NULL_TRACER
from .http import DEFAULT_RESPONSE_HEADER_BYTES, HttpRequest, HttpResponse
from .scripts import DynamicScript, ScriptContext, ScriptRegistry, SiteServices
from .session import Session, SessionManager


class ApplicationServer:
    """Executes dynamic scripts against site services."""

    def __init__(
        self,
        services: SiteServices,
        clock: Optional[SimulatedClock] = None,
        bem: Optional[BackEndMonitor] = None,
        origin_dpc: Optional[DynamicProxyCache] = None,
        cost_model: Optional[GenerationCostModel] = None,
        response_header_bytes: int = DEFAULT_RESPONSE_HEADER_BYTES,
        queue=None,
        db_queue=None,
    ) -> None:
        self.services = services
        #: Optional :class:`repro.overload.queues.BoundedQueue` in front of
        #: request dispatch (duck-typed to avoid an import cycle).  ``None``
        #: keeps the paper's infinite-capacity origin.
        self.queue = queue
        #: Optional bounded queue modeling the DBMS connection pool; its
        #: service demand is the request's database share of generation.
        self.db_queue = db_queue
        self.clock = clock if clock is not None else (
            bem.clock if bem is not None else SimulatedClock()
        )
        if bem is not None and bem.clock is not self.clock:
            raise ScriptError("BEM and application server must share one clock")
        if origin_dpc is not None and bem is None:
            raise ConfigurationError("an origin DPC needs a BEM to fill it")
        self.bem = bem
        #: The slot array of the back-end baseline, on the origin side of
        #: the link.  Assembly there charges no clock time and opens no span.
        self.origin_dpc = origin_dpc
        self.mode = (
            "plain" if bem is None else ("dpc" if origin_dpc is None else "backend")
        )
        self.cost_model = cost_model if cost_model is not None else GenerationCostModel()
        self.response_header_bytes = response_header_bytes
        self.scripts = ScriptRegistry()
        self.sessions = SessionManager(self.clock)
        self.requests_served = 0
        #: Tracer breaking origin-side work into ``bem.process`` →
        #: ``script.exec`` → ``script.compute``/``db.query`` spans.  When
        #: left disabled the generation advance stays one combined call,
        #: preserving the exact float arithmetic of untraced runs.  An
        #: enabled tracer must run on this server's clock: its leaves
        #: advance it.
        self.tracer = NULL_TRACER

    @property
    def caching_enabled(self) -> bool:
        """Whether a BEM is attached (``dpc`` or ``backend`` mode)."""
        return self.bem is not None

    def register(self, script: DynamicScript) -> DynamicScript:
        """Register a dynamic script with this server."""
        return self.scripts.register(script)

    def handle(self, request: HttpRequest) -> HttpResponse:
        """Serve one request end-to-end at the origin.

        Advances the shared clock by the generation time (plus any modeled
        queueing delay), so TTLs expire under load exactly as they would on
        a busy real server.  With bounded queues attached, arrivals that
        find a full waiting room raise
        :class:`~repro.errors.QueueFullError`, and arrivals whose scheduled
        service start already misses their deadline raise
        :class:`~repro.errors.DeadlineExceededError` — both *before* any
        script work runs, so rejections have no side effects.

        Untraced, ``handle`` is just the origin step: no span scope, no
        annotation, and the admission screen runs only when a bounded queue
        is attached or the request carries a deadline.  Traced, the same
        work is reported as a ``bem.process`` span containing
        ``script.exec`` (itself split into ``script.compute`` and
        ``db.query`` leaves) and origin-side ``queue.wait`` spans for the
        application and DB-pool queues — every clock advance lands in a
        leaf, so the tree tiles exactly.
        """
        tracer = self.tracer
        if not tracer._enabled:
            return self._handle_inner(request, False)
        with tracer.span("bem.process", path=request.path) as process_span:
            response = self._handle_inner(request, True)
            process_span.annotate(
                mode=response.meta["mode"],
                hits=response.meta["hits"],
                misses=response.meta["misses"],
            )
            return response

    def script_run(
        self, request: HttpRequest, bem=None, session: Optional[Session] = None
    ) -> Tuple[DynamicScript, ScriptContext]:
        """The script serving ``request`` and the context it writes through.

        ``bem`` is the block monitor the page is written for (``None``
        writes the uncached page).  ``session`` defaults to the live
        session, resolved as serving the request resolves it.
        """
        script = self.scripts.resolve(request.path)
        if session is None:
            session = self.sessions.resolve(request.session_id, request.user_id)
        ctx = ScriptContext(
            request=request,
            session=session,
            services=self.services,
            cost_model=self.cost_model,
            bem=bem,
        )
        return script, ctx

    def _handle_inner(self, request: HttpRequest, traced: bool) -> HttpResponse:
        arrival = (
            request.arrived_at if request.arrived_at is not None
            else self.clock.now()
        )
        if (
            self.queue is not None
            or self.db_queue is not None
            or request.deadline_at is not None
        ):
            self._screen_admission(arrival, request.deadline_at, request.priority)
        script, ctx = self.script_run(request, self.bem)
        reads = self.services.db.tally
        rows_before = reads.rows
        if traced:
            tracer = self.tracer
            with tracer.span("script.exec"):
                body, gets, sets = self._run_script(request, script, ctx)
                tracer.advance(
                    "script.compute", ctx.generation_cost_s - ctx.db_cost_s
                )
                tracer.advance("db.query", ctx.db_cost_s, rows=ctx.db_rows)
        else:
            body, gets, sets = self._run_script(request, script, ctx)
        app_wait_s = db_wait_s = 0.0
        if self.queue is not None:
            app_wait_s = self.queue.offer(
                arrival, ctx.generation_cost_s, request.priority
            ).wait_s
        if self.db_queue is not None:
            db_rows = reads.rows - rows_before
            db_service_s = (
                self.cost_model.db_connection_wait_s
                + db_rows * self.cost_model.db_row_cost_s
            )
            db_wait_s = self.db_queue.offer(
                arrival, db_service_s, request.priority
            ).wait_s
        if traced:
            if app_wait_s > 0:
                self.tracer.advance("queue.wait", app_wait_s, queue="appserver")
            if db_wait_s > 0:
                self.tracer.advance("queue.wait", db_wait_s, queue="db_pool")
        else:
            self.clock.advance(ctx.generation_cost_s + app_wait_s + db_wait_s)
        self.requests_served += 1

        return HttpResponse(
            body=body,
            header_bytes=self.response_header_bytes,
            meta={
                "mode": self.mode,
                "url": request.url,
                "blocks": ctx.blocks,
                "hits": ctx.hits,
                "misses": ctx.misses,
                "generated_bytes": ctx.generated_bytes,
                "generation_s": ctx.generation_cost_s,
                "get_count": gets,
                "set_count": sets,
            },
        )

    def _run_script(
        self, request: HttpRequest, script: DynamicScript, ctx: ScriptContext
    ) -> Tuple[str, int, int]:
        """Run the page's script: ``(body, GET count, SET count)``.

        A failure other than a :class:`ScriptError` or an overload
        rejection is wrapped in a :class:`ScriptError` naming the path.
        """
        bem = self.bem
        if bem is not None:
            bem.deadline_at = request.deadline_at
        try:
            script.run(ctx)
        except Exception as exc:
            if isinstance(exc, (ScriptError, OverloadError)):
                raise
            raise ScriptError(
                "script %r failed: %s" % (request.path, exc)
            ) from exc
        finally:
            if bem is not None:
                bem.deadline_at = None
        body = ctx.response_body()
        if self.origin_dpc is not None:
            return self.origin_dpc.process_response(body).html, 0, 0
        return body, ctx.hits, ctx.misses

    def _screen_admission(
        self, arrival: float, deadline_at: Optional[float], priority: int = 0
    ) -> None:
        """Reject doomed arrivals before any script work runs.

        Queue-full and already-hopeless-deadline arrivals are turned away
        at the door: no script executes, no directory entry is inserted,
        no SET is emitted — so a rejection can never desynchronize the
        BEM and DPC.
        """
        latest_start = arrival
        for queue in (self.queue, self.db_queue):
            if queue is None:
                continue
            if queue.full(arrival, priority):
                queue.reject(arrival)
            latest_start = max(latest_start, queue.next_start(arrival))
        if deadline_at is not None and latest_start >= deadline_at:
            raise DeadlineExceededError(
                "service would start at %.6f, past the %.6f deadline"
                % (latest_start, deadline_at)
            )

    def render_reference_page(self, request: HttpRequest) -> str:
        """Oracle: the page this request *should* produce, uncached.

        Runs the script with caching disabled against the same services and
        a private copy of the session the request would see, without
        advancing the clock or counters and without changing any session —
        used by the correctness invariants and the baseline-incorrectness
        benches.
        """
        session = self.sessions.snapshot(request.session_id, request.user_id)
        script, ctx = self.script_run(request, session=session)
        script.run(ctx)
        return ctx.response_body()
