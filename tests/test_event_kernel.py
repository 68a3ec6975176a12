"""Differential-oracle suite: the router core vs the frozen object router.

:class:`repro.cluster.ClusterRouter` runs the discrete-event simulation over
columnar ledgers, deferred charges and turbo batch chunks; the per-request
object router frozen in ``tests/oracle/`` is the oracle.  Every test here
replays one randomized workload through both — same nodes, same
scheduler, same fault plan, same drain cadence — and requires the
*entire* observable state to match bit for bit:

* the merged cluster ledger and every per-node ledger,
* the per-request trace rows (ids, placements, virtual times, energies,
  flags), in their merged emission order,
* the deadline-miss set,
* request conservation (``completed == admitted``, no loss under faults),
* node telemetry, spot-check counters and the shared forward-memo state
  (hits, misses and LRU order — the kernel batches its LRU writes).

Hypothesis drives the workload space (poisson / diurnal / burst arrival
processes, SLA mixes, binned fleets, fault plans, coalescing on and off,
EXACT and ANALYTIC modes); the shared ``ci`` profile in ``conftest.py``
keeps CI runs derandomized and bounded, ``REPRO_HYPOTHESIS_PROFILE=nightly``
widens the sweep.  The heavyweight cases carry ``@pytest.mark.slow`` — the
per-PR CI matrix deselects them, tier-1 and the nightly tier run them.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from oracle import ObjectRouter

from repro.cluster import (
    ClusterNode,
    ClusterRouter,
    ColumnarTelemetry,
    ExecutionMode,
    ForwardMemo,
    RequestTrace,
    SLAClass,
    SLAScheduler,
    build_image_pool,
    burst_trace,
    diurnal_trace,
    poisson_trace,
)
from repro.dnn.pipeline import make_pattern_image_dataset, train_pattern_cnn
from repro.obs import MetricsRegistry, Tracer
from repro.reliability import ChipBinner, FaultEvent, FaultKind, FaultPlan
from repro.utils.validation import check_ledger_conservation

NUM_MACROS = 4
IMAGE_SIZE = 16
IMAGE_COUNTS = (3, 5)

_TRACE_FIELDS = [field.name for field in dataclasses.fields(RequestTrace)]


@pytest.fixture(scope="module")
def trained():
    dataset = make_pattern_image_dataset(samples=260, size=IMAGE_SIZE, seed=3)
    cnn, _ = train_pattern_cnn(
        dataset, conv_channels=(1,), hidden_sizes=(4,), epochs=4, seed=3
    )
    return dataset, cnn


@pytest.fixture(scope="module")
def pool(trained):
    dataset, _ = trained
    return build_image_pool({"cnn": dataset.test_images}, IMAGE_COUNTS)


#: Binned dice shared by every binned-fleet example (binning is seeded and
#: deterministic; building it once keeps hypothesis examples fast).
_BINS = ChipBinner(seed=2020, samples=128).bin_fleet(3)


def _make_trace(kind: str, requests: int, deadline_s, sla_mix, seed: int):
    if kind == "poisson":
        return poisson_trace(
            requests, rate_rps=400.0, model_ids=("cnn",),
            image_counts=IMAGE_COUNTS, sla_mix=sla_mix,
            deadline_s=deadline_s, seed=seed,
        )
    if kind == "diurnal":
        return diurnal_trace(
            requests, period_s=0.25, base_rate_rps=300.0,
            peak_rate_rps=1200.0, model_ids=("cnn",),
            image_counts=IMAGE_COUNTS, sla_mix=sla_mix,
            deadline_s=deadline_s, seed=seed,
        )
    return burst_trace(
        requests, base_rate_rps=300.0, burst_every_s=0.08,
        burst_duration_s=0.02, burst_multiplier=6.0, model_ids=("cnn",),
        image_counts=IMAGE_COUNTS, sla_mix=sla_mix,
        deadline_s=deadline_s, seed=seed,
    )


def _fault_plan(fault: str, span_s: float) -> FaultPlan:
    if fault == "none":
        return FaultPlan()
    if fault == "crash":
        return FaultPlan.node_crash(
            "n0", at_s=span_s * 0.3, recover_at_s=span_s * 0.7
        )
    if fault == "degrade":
        return FaultPlan([
            FaultEvent(at_s=span_s * 0.2, kind=FaultKind.DEGRADE,
                       node_id="n1", factor=2.0),
            FaultEvent(at_s=span_s * 0.6, kind=FaultKind.RECOVER,
                       node_id="n1"),
        ])
    return FaultPlan([  # "mixed": a stall riding on a crash window
        FaultEvent(at_s=span_s * 0.25, kind=FaultKind.CRASH, node_id="n0"),
        FaultEvent(at_s=span_s * 0.4, kind=FaultKind.STALL, node_id="n1",
                   duration_s=span_s * 0.1),
        FaultEvent(at_s=span_s * 0.65, kind=FaultKind.RECOVER,
                   node_id="n0"),
    ])


def _run(cnn, pool, trace, side, *, mode, vdds, binned, coalesce, fault,
         drain_every, spot_check_every=0, aggregates_only=False, warm=False):
    """One replay on ``side`` ("oracle" or "core"); returns every observable
    the oracle comparison pins."""
    memo = ForwardMemo()
    nodes = [
        ClusterNode(
            f"n{index}",
            vdd=vdd,
            num_macros=NUM_MACROS,
            max_batch_size=max(IMAGE_COUNTS),
            execution_mode=mode,
            forward_memo=memo,
            spot_check_every=spot_check_every,
            bin=_BINS[index] if binned else None,
        )
        for index, vdd in enumerate(vdds)
    ]
    plan = _fault_plan(fault, trace.duration_s)
    common = dict(
        scheduler=SLAScheduler(coalesce_affinity=coalesce),
        coalesce=coalesce,
        fault_plan=plan,
    )
    if side == "oracle":
        router = ObjectRouter(nodes, **common)
    else:
        router = ClusterRouter(
            nodes, telemetry=ColumnarTelemetry(),
            retain_results=not aggregates_only, **common,
        )
    router.register_model("cnn", cnn)
    try:
        if warm:
            for node in nodes:
                for slots in pool.values():
                    for digest, images in slots:
                        node.execute("cnn", images, input_digest=digest)
        stats = router.replay_trace(trace, pool, drain_every=drain_every)
        rows = [
            tuple(getattr(t, f) for f in _TRACE_FIELDS)
            for t in router.telemetry.traces
        ]
        cluster = router.ledger()
        check_ledger_conservation(
            cluster, [node.ledger() for node in nodes]
        )
        assert stats["completed"] == stats["requests"]
        observed = {
            "rows": rows,
            "summary": router.telemetry.summary(),
            "cluster_ledger": (cluster.total_cycles, cluster.total_energy_j,
                               cluster.total_operations),
            "clock": router.clock_s,
            "completed": router.completed_requests,
            "requests": stats["requests"],
            "miss_set": {
                r[0] for r in rows if r[_TRACE_FIELDS.index("deadline_missed")]
            },
            "replayed_set": {
                r[0] for r in rows if r[_TRACE_FIELDS.index("replayed")]
            },
            "memo": (memo.hits, memo.misses, tuple(memo._entries.keys())),
        }
        for node in nodes:
            ledger = node.ledger()
            tel = node.telemetry
            observed[f"node:{node.node_id}"] = (
                ledger.total_cycles, ledger.total_energy_j,
                tel.dispatches, tel.images, tel.busy_s, tel.energy_j,
                tel.deadline_misses, tel.affinity_hits,
                tel.ewma_image_latency_s, node.spot_checks,
                node.state.value,
            )
    finally:
        router.shutdown()
    return observed


def _assert_identical(reference, core):
    """Every observable matches, reported field-by-field on divergence."""
    assert set(reference) == set(core)
    for key, value in reference.items():
        if key == "rows":
            assert len(core[key]) == len(value)
            for got, want in zip(core[key], value):
                assert got == want
        else:
            assert core[key] == value, f"diverged on {key}"


sla_mixes = st.sampled_from([
    None,
    {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3},
    {"latency": 1.0},
    {"throughput": 0.5, "best_effort": 0.5},
])


class TestDifferentialOracle:
    """Randomized oracle-vs-core equivalence on the per-request path."""

    @given(
        kind=st.sampled_from(["poisson", "diurnal", "burst"]),
        requests=st.integers(min_value=5, max_value=40),
        drain_every=st.sampled_from([1, 7, 64]),
        sla_mix=sla_mixes,
        deadline_scale=st.sampled_from([None, 0.5, 4.0]),
        binned=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_analytic_traces_match(
        self, trained, pool, kind, requests, drain_every, sla_mix,
        deadline_scale, binned, seed,
    ):
        _, cnn = trained
        deadline_s = None if deadline_scale is None else deadline_scale * 5e-4
        if deadline_s is None and sla_mix is not None and "latency" in sla_mix:
            # A latency share requires a deadline; keep the undeadlined
            # examples on the other two classes.
            sla_mix = {"throughput": 0.5, "best_effort": 0.5}
        trace = _make_trace(kind, requests, deadline_s, sla_mix, seed)
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6), binned=binned,
            coalesce=False, fault="none", drain_every=drain_every,
        )
        reference = _run(cnn, pool, trace, "oracle", **config)
        core = _run(cnn, pool, trace, "core", **config)
        _assert_identical(reference, core)

    @given(
        kind=st.sampled_from(["poisson", "burst"]),
        requests=st.integers(min_value=5, max_value=25),
        coalesce=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_exact_mode_and_coalescing_match(
        self, trained, pool, kind, requests, coalesce, seed,
    ):
        _, cnn = trained
        trace = _make_trace(
            kind, requests, 2e-3,
            {"latency": 0.2, "throughput": 0.5, "best_effort": 0.3}, seed,
        )
        config = dict(
            mode=ExecutionMode.EXACT, vdds=(1.0, 0.8), binned=False,
            coalesce=coalesce, fault="none", drain_every=16,
        )
        reference = _run(cnn, pool, trace, "oracle", **config)
        core = _run(cnn, pool, trace, "core", **config)
        _assert_identical(reference, core)


class TestFaultDifferential:
    """Fault plans (crash / degrade / stall + replay) on both routers."""

    @given(
        fault=st.sampled_from(["crash", "degrade", "mixed"]),
        kind=st.sampled_from(["poisson", "diurnal"]),
        requests=st.integers(min_value=10, max_value=40),
        drain_every=st.sampled_from([4, 32]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_fault_plans_match_and_conserve(
        self, trained, pool, fault, kind, requests, drain_every, seed,
    ):
        _, cnn = trained
        trace = _make_trace(
            kind, requests, 1e-3,
            {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3}, seed,
        )
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6, 0.8), binned=False,
            coalesce=False, fault=fault, drain_every=drain_every,
        )
        reference = _run(cnn, pool, trace, "oracle", **config)
        core = _run(cnn, pool, trace, "core", **config)
        # _run already asserted conservation per-side; the replayed request
        # set (crash re-placements) must also coincide.
        assert core["replayed_set"] == reference["replayed_set"]
        _assert_identical(reference, core)


@pytest.mark.slow
class TestTurboDifferential:
    """The steady-state turbo batch path vs the oracle at depth.

    Warm memoised fleets with spot checks on, thousands of requests,
    drain chunks large enough that the core takes its batch
    admission/dispatch/flush path — the configuration the throughput
    benchmark measures.
    """

    @given(
        kind=st.sampled_from(["poisson", "diurnal", "burst"]),
        drain_every=st.sampled_from([64, 256]),
        deadline_scale=st.sampled_from([None, 2.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_turbo_matches_oracle(
        self, trained, pool, kind, drain_every, deadline_scale, seed,
    ):
        _, cnn = trained
        deadline_s = None if deadline_scale is None else deadline_scale * 5e-4
        sla_mix = (
            {"throughput": 0.5, "best_effort": 0.5}
            if deadline_s is None
            else {"latency": 0.25, "throughput": 0.5, "best_effort": 0.25}
        )
        trace = _make_trace(kind, 600, deadline_s, sla_mix, seed)
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6), binned=False,
            coalesce=False, fault="none", drain_every=drain_every,
            spot_check_every=100, warm=True,
        )
        reference = _run(cnn, pool, trace, "oracle", **config)
        core = _run(cnn, pool, trace, "core", aggregates_only=True, **config)
        _assert_identical(reference, core)

    def test_turbo_matches_oracle_with_faults_mid_trace(self, trained, pool):
        """Fault horizons force per-chunk fallback; mixing turbo and oracle
        chunks in one replay must stay bit-exact."""
        _, cnn = trained
        trace = _make_trace(
            "diurnal", 800, 1e-3,
            {"latency": 0.25, "throughput": 0.5, "best_effort": 0.25}, 11,
        )
        config = dict(
            mode=ExecutionMode.ANALYTIC, vdds=(1.0, 0.6, 0.8), binned=True,
            coalesce=False, fault="crash", drain_every=128,
            spot_check_every=200, warm=True,
        )
        reference = _run(cnn, pool, trace, "oracle", **config)
        core = _run(cnn, pool, trace, "core", aggregates_only=True, **config)
        assert core["replayed_set"] == reference["replayed_set"]
        _assert_identical(reference, core)


# ---------------------------------------------------------------------- #
# The gateway's call pattern: small admission batches read back per drain
# ---------------------------------------------------------------------- #
_SLAS = (SLAClass.LATENCY, SLAClass.THROUGHPUT, SLAClass.BEST_EFFORT)


def _gateway_fleet(mode):
    memo = ForwardMemo()
    return [
        ClusterNode(
            f"n{index}", vdd=vdd, num_macros=NUM_MACROS, max_batch_size=16,
            execution_mode=mode, forward_memo=memo,
        )
        for index, vdd in enumerate((1.0, 0.6))
    ]


def _cluster_series(snapshot):
    """Every ``cluster_*`` counter and histogram sample, minus timestamps."""
    series = {}
    for name, family in snapshot["metrics"].items():
        if not name.startswith("cluster_") or family["kind"] == "gauge":
            continue
        for sample in family["samples"]:
            key = (name, tuple(sorted(sample["labels"].items())))
            series[key] = {
                k: v for k, v in sample.items()
                if k not in ("labels", "virtual_s", "wall_s")
            }
    return series


def _serve_like_gateway(side, cnn, pool, batches, seed, mode):
    """Admit, drain and read back each batch as ``GatewayServer`` does."""
    nodes = _gateway_fleet(mode)
    registry, tracer = MetricsRegistry(), Tracer(sample_every=7)
    cls = ObjectRouter if side == "oracle" else ClusterRouter
    router = cls(nodes, coalesce=True, metrics=registry, tracer=tracer)
    router.register_model("cnn", cnn)
    rng = np.random.default_rng(seed)
    results, scrapes = [], []
    try:
        for size in batches:
            ids = []
            for _ in range(size):
                slots = pool[("cnn", IMAGE_COUNTS[int(rng.integers(2))])]
                digest, images = slots[int(rng.integers(len(slots)))]
                sla = _SLAS[int(rng.integers(3))]
                ids.append(router.submit(
                    "cnn", images, sla=sla, input_digest=digest,
                    deadline_s=5e-4 if sla is SLAClass.LATENCY else None,
                ))
            router.drain()
            results.extend(router.result(rid) for rid in ids)
            scrapes.append(_cluster_series(registry.snapshot()))
        ledgers = {
            node.node_id: (
                node.ledger().total_cycles, node.ledger().total_energy_j,
                node.telemetry.summary(),
            )
            for node in nodes
        }
    finally:
        router.shutdown()
    return results, scrapes, ledgers, tracer


class TestGatewayCallPattern:
    """Oracle-vs-core equivalence under ``GatewayServer._dispatch_batch``'s
    pattern: coalescing, retained results, a registry and a tracer
    attached, admission batches of 1-128 requests, one ``drain()`` per
    batch, then ``result(id)`` per request (the core charges directly
    after the first read-back)."""

    @given(
        batches=st.lists(st.integers(min_value=1, max_value=128), min_size=1, max_size=3),
        mode=st.sampled_from([ExecutionMode.ANALYTIC, ExecutionMode.EXACT]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(batches=[128, 32, 128], mode=ExecutionMode.ANALYTIC, seed=7)
    @example(batches=[1, 128], mode=ExecutionMode.EXACT, seed=11)
    def test_gateway_pattern_matches(self, trained, pool, batches, mode, seed):
        _, cnn = trained
        want = _serve_like_gateway("oracle", cnn, pool, batches, seed, mode)
        got = _serve_like_gateway("core", cnn, pool, batches, seed, mode)
        fields = [f for f in _TRACE_FIELDS if f != "span_id"]
        assert len(got[0]) == len(want[0]) == sum(batches)
        for ours, theirs in zip(got[0], want[0]):
            assert [getattr(ours, f) for f in fields] == [getattr(theirs, f) for f in fields]
            assert ours.sla is theirs.sla
            assert np.array_equal(ours.predictions, theirs.predictions)
        assert got[1] == want[1]  # the scraped cluster_* series, batch by batch
        assert got[2] == want[2]  # node ledgers and node telemetry

    def test_charge_path_follows_read_back(self, trained, pool, monkeypatch):
        """Deferred charging until results are read back per drain, direct
        charging while they are, deferred again once they are not."""
        _, cnn = trained
        router = ClusterRouter(_gateway_fleet(ExecutionMode.ANALYTIC))
        router.register_model("cnn", cnn)
        paths = []
        for name in ("_dispatch_fast", "_dispatch_direct"):
            original = getattr(ClusterRouter, name)

            def counting(self, *args, _original=original, _name=name):
                paths.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(ClusterRouter, name, counting)
        digest, images = pool[("cnn", 3)][0]

        def serve(read_back):
            del paths[:]
            rid = router.submit("cnn", images, input_digest=digest)
            router.drain()
            if read_back:
                router.result(rid)
            return set(paths)

        serve(read_back=True)  # cold: programs weights on the direct path
        assert serve(read_back=True) == {"_dispatch_direct"}
        assert serve(read_back=False) == {"_dispatch_direct"}
        assert serve(read_back=False) == {"_dispatch_fast"}
        router.shutdown()


class TestTracerWithoutRegistry:
    def test_tracer_only_router_emits_the_oracles_spans(self, trained, pool):
        """A tracer alone (no metrics registry) still yields the sampled
        span trees, identical to the oracle's, and results carry span ids."""
        _, cnn = trained
        slots = pool[("cnn", 3)][:2]

        def run(cls):
            tracer = Tracer(sample_every=1)
            router = cls(_gateway_fleet(ExecutionMode.ANALYTIC), tracer=tracer)
            router.register_model("cnn", cnn)
            ids = [router.submit("cnn", images, input_digest=d) for d, images in slots]
            router.drain()
            results = [router.result(rid) for rid in ids]
            router.shutdown()
            spans = [
                (s.name, s.trace_id, s.span_id, s.parent_id, s.start_virtual_s,
                 s.end_virtual_s)
                for s in tracer.spans
            ]
            return spans, results

        want, _ = run(ObjectRouter)
        got, results = run(ClusterRouter)
        assert len(want) == 8
        assert got == want
        assert [r.span_id for r in results] == [
            span[2] for span in got if span[0] == "admission"
        ]


class TestAggregateOnlyTelemetry:
    def test_fold_and_drop_matches_the_oracle(self, trained, pool, monkeypatch):
        """``retain_traces=False`` folds rows into running aggregates (and
        the registry) and drops them every ``_AGG_FLUSH_ROWS``; summaries,
        ledgers, scraped series and sampled spans still match the oracle."""
        _, cnn = trained
        monkeypatch.setattr(ColumnarTelemetry, "_AGG_FLUSH_ROWS", 64)
        trace = _make_trace(
            "diurnal", 400, 1e-3,
            {"latency": 0.3, "throughput": 0.4, "best_effort": 0.3}, 5,
        )

        def run(side):
            nodes = _gateway_fleet(ExecutionMode.ANALYTIC)
            registry, tracer = MetricsRegistry(), Tracer(sample_every=16)
            if side == "oracle":
                router = ObjectRouter(nodes, metrics=registry, tracer=tracer)
            else:
                router = ClusterRouter(
                    nodes, telemetry=ColumnarTelemetry(retain_traces=False),
                    retain_results=False, metrics=registry, tracer=tracer,
                )
            router.register_model("cnn", cnn)
            for node in nodes:
                for slots in pool.values():
                    for digest, images in slots:
                        node.execute("cnn", images, input_digest=digest)
            router.replay_trace(trace, pool, drain_every=32)
            telemetry = router.telemetry
            observed = {
                "summary": telemetry.summary(),
                "misses": [telemetry.deadline_miss_rate(sla.value) for sla in _SLAS],
                "counts": [telemetry.request_count(sla.value) for sla in _SLAS],
                "ledger": (router.ledger().total_cycles, router.ledger().total_energy_j),
                "nodes": [node.telemetry.summary() for node in nodes],
                "spans": [
                    (s.name, s.trace_id, s.start_virtual_s, s.end_virtual_s)
                    for s in tracer.spans
                ],
            }
            series = _cluster_series(registry.snapshot())
            router.shutdown()
            return observed, series

        want, want_series = run("oracle")
        got, got_series = run("core")
        assert got == want
        assert len(want["spans"]) == 4 * len(range(0, 400, 16))
        # The core folds 64-row chunks where the oracle folds once at the
        # scrape, so float sums may round differently; fold counts differ.
        del want_series[("cluster_telemetry_folds_total", ())]
        del got_series[("cluster_telemetry_folds_total", ())]
        assert got_series.keys() == want_series.keys()
        for key, sample in want_series.items():
            for field, value in sample.items():
                assert got_series[key][field] == pytest.approx(value, rel=1e-12), key
