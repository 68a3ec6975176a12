"""Deferred charge replay: the ledger machinery of the router's fast path.

In ANALYTIC mode a warm dispatch's engine charges are a fixed template per
(model, slice size): the same
:meth:`~repro.core.matmul.TiledMatmulEngine.charge_layers` rows in the same
order.  :class:`~repro.cluster.router.ClusterRouter` therefore buffers the
per-node *sequence* of slice signatures (:class:`ChargeBuffer`) instead of
charging each dispatch, and :func:`flush_charges` applies the sequence
with ``np.add.accumulate`` folds — a strict sequential left fold, so every
float accumulator receives the identical sequence of additions a direct
per-dispatch charge performs, add for add.  Integer counters are
batch-added (exact), LRU order is restored from last-touch order, and
per-dispatch energies are recovered from the accumulator's slice
boundaries exactly as ``ledger_since`` subtracts them.

:class:`NodeCache` holds the per-node derived state the fast path reads
(estimates, slice/dispatch signatures, turbo constants), validated on
access against the live node so any retune or re-programming rebuilds it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.cluster.node import ClusterNode
from repro.cluster.telemetry import _fold
from repro.core import Opcode
from repro.errors import ConfigurationError

__all__ = ["ChargeBuffer", "DispatchSig", "NodeCache", "SliceSig", "flush_charges"]


class SliceSig:
    """Charge template of one ``charge_layers`` call: (model, slice size).

    Holds exactly the values the engine's per-row loop would add, laid out
    for vectorized sequential folds at flush time.  Built once per
    (node, model, geometry, slice size) from the *resident* cache entries,
    and discarded whenever the fleet version bumps (retune, programming).
    """

    __slots__ = (
        "e9", "n_rows", "per_macro", "macro_order", "critical", "mac_count",
        "n_layers", "layer_ids",
    )

    def __init__(self, node: ClusterNode, model_id: str, shape_tail: tuple,
                 size: int) -> None:
        engine = node.engine
        specs = node._layer_charge_specs(model_id, (size,) + shape_tail)
        rows_all: List[tuple] = []
        mac_count = 0
        layer_ids: List[str] = []
        for factor, _codes, layer_id in specs:
            batch = factor * size
            entry = engine.cache.peek(layer_id)
            rows_all.extend(engine._charge_rows_for(entry, batch))
            inner, outer = entry.shape
            mac_count += batch * inner * outer
            layer_ids.append(layer_id)
        self.e9 = np.array([r[9] for r in rows_all], dtype=np.float64)
        self.n_rows = len(rows_all)
        # Per-macro template, keyed in *first-touch* order (dict insertion
        # order), so flush can create stats records in the order the
        # direct path's defaultdict would.
        per_macro: Dict[int, list] = {}
        for r in rows_all:
            d = per_macro.get(r[0])
            if d is None:
                # [mult_e list, add_e list, mult_inv, words, mult_cyc,
                #  add_cyc, access, cycsum]
                d = [[], [], 0, 0, 0, 0, 0, 0]
                per_macro[r[0]] = d
            d[0].append(r[4])
            d[1].append(r[6])
            d[2] += r[1]
            d[3] += r[2]
            d[4] += r[3]
            d[5] += r[5]
            d[6] += r[7]
            d[7] += r[8]
        self.per_macro = {
            m: (
                np.array(d[0], dtype=np.float64),
                np.array(d[1], dtype=np.float64),
                d[2], d[3], d[4], d[5], d[6], d[7],
            )
            for m, d in per_macro.items()
        }
        self.macro_order = list(per_macro)
        self.critical = max(
            (d[7] for d in self.per_macro.values()), default=0
        )
        self.mac_count = mac_count
        self.n_layers = len(specs)
        self.layer_ids = layer_ids


class DispatchSig:
    """Slice sequence + cached compute time of one (model, total images)."""

    __slots__ = ("slices", "batches", "critical_total", "_compute", "_cycle")

    def __init__(self, slices: List[SliceSig], cycle_time: float) -> None:
        self.slices = slices
        self.batches = len(slices)
        self.critical_total = sum(s.critical for s in slices)
        self._cycle = cycle_time
        self._compute: Dict[float, float] = {}

    def compute_s(self, degrade: float) -> float:
        """The exact ``compute += critical * cycle * degrade`` fold."""
        cached = self._compute.get(degrade)
        if cached is None:
            cached = 0.0
            cycle = self._cycle
            for s in self.slices:
                cached += s.critical * cycle * degrade
            self._compute[degrade] = cached
        return cached


class ChargeBuffer:
    """Per-node deferred charge state: the slice-event sequence."""

    __slots__ = (
        "engine", "dispatches", "row_indexes", "ordinals", "fractions",
        "any_fraction", "macros_seen",
    )

    def __init__(self, engine) -> None:
        self.engine = engine
        #: One entry per buffered dispatch: its ``SliceSig`` pattern list
        #: (the dsig's own list object — distinct patterns are few, so the
        #: flush dedupes them by identity and replays vectorized).
        self.dispatches: List[List[SliceSig]] = []
        #: Deferred telemetry rows, as parallel columns:
        #: row index / dispatch ordinal / coalesced fraction (or None).
        self.row_indexes: List[int] = []
        self.ordinals: List[int] = []
        self.fractions: List[Optional[float]] = []
        self.any_fraction = False
        #: Macros whose MULT/ADD records were already created on this chip.
        self.macros_seen: Set[int] = set()

    def reset(self) -> None:
        self.dispatches = []
        self.row_indexes = []
        self.ordinals = []
        self.fractions = []
        self.any_fraction = False


def flush_charges(node: ClusterNode, buf: ChargeBuffer, telemetry) -> None:
    """Apply a node's buffered charge sequence to its real ledgers.

    The buffer holds one slice-*pattern* reference per dispatch and the
    distinct patterns are few (one per warm (model, batch) pair), so the
    slice event sequence is never materialized: every float accumulator
    receives its additions through sequential ``np.add.accumulate`` folds
    over pattern segments gathered in dispatch order — the identical
    increment sequence, and therefore the identical rounding sequence, the
    direct path's per-row ``+=`` loops apply — while integer counters are
    batch-added (exact) and LRU order is restored from the last-touch
    order of the event sequence.
    """
    dispatches = buf.dispatches
    if not dispatches:
        return
    engine = buf.engine
    if node.engine is not engine:  # pragma: no cover - guarded by hooks
        raise ConfigurationError(
            f"node {node.node_id!r} was retuned with deferred charges "
            "pending; retune through the router/autoscaler hooks"
        )
    # --- distinct patterns + per-dispatch pattern ids ------------------- #
    pattern_index: Dict[int, int] = {}
    patterns: List[list] = []
    pids: List[int] = []
    papp = pids.append
    for pattern in dispatches:
        i = pattern_index.get(id(pattern))
        if i is None:
            i = len(patterns)
            pattern_index[id(pattern)] = i
            patterns.append(pattern)
        papp(i)
    ndisp = len(pids)
    npat = len(patterns)
    pid_arr = np.asarray(pids, dtype=np.intp)
    pattern_counts = np.bincount(pid_arr, minlength=npat)
    _, first_disp = np.unique(pid_arr, return_index=True)
    _, rev = np.unique(pid_arr[::-1], return_index=True)
    last_disp = ndisp - 1 - rev

    def gather(flat: np.ndarray, lens: np.ndarray) -> np.ndarray:
        """Concatenate per-pattern ``flat`` segments in dispatch order."""
        base = np.concatenate(([0], np.cumsum(lens)[:-1]))
        counts = lens[pid_arr]
        total = int(counts.sum())
        ends = np.cumsum(counts)
        return flat[
            np.repeat(base[pid_arr] - (ends - counts), counts)
            + np.arange(total)
        ]

    # --- global energy accumulator + per-slice boundary deltas ---------- #
    empty_f = np.empty(0, dtype=np.float64)
    pat_e9 = [
        np.concatenate([s.e9 for s in p]) if p else empty_f
        for p in patterns
    ]
    e9_lens = np.array([len(v) for v in pat_e9], dtype=np.intp)
    e9_flat = np.concatenate(pat_e9) if npat > 1 else pat_e9[0]
    lead = np.empty(1, dtype=np.float64)
    lead[0] = engine._energy_acc
    full = np.add.accumulate(
        np.concatenate((lead, gather(e9_flat, e9_lens)))
    )
    engine._energy_acc = float(full[-1])
    pat_nrows = [
        np.array([s.n_rows for s in p], dtype=np.intp) for p in patterns
    ]
    nrows_lens = np.array([len(v) for v in pat_nrows], dtype=np.intp)
    nrows_flat = np.concatenate(pat_nrows) if npat > 1 else pat_nrows[0]
    slice_nrows = gather(nrows_flat, nrows_lens)
    slices_per_disp = nrows_lens[pid_arr]
    bounds = np.cumsum(slice_nrows)
    acc_at = full[bounds]
    prev = np.concatenate((full[:1], acc_at[:-1]))
    slice_deltas = acc_at - prev
    # --- per-record energy folds + record creation order ---------------- #
    macros = engine._macros
    mult_op = Opcode.MULT
    add_op = Opcode.ADD
    seen = buf.macros_seen
    macro_mult: Dict[int, list] = {}
    macro_add: Dict[int, list] = {}
    first_key: Dict[int, tuple] = {}
    for i, p in enumerate(patterns):
        fd = int(first_disp[i])
        # macro -> (mult arrays, add arrays), first-touch order & slice
        # order within this pattern.
        local: Dict[int, tuple] = {}
        for s in p:
            pm = s.per_macro
            for m in s.macro_order:
                d = pm[m]
                lists = local.get(m)
                if lists is None:
                    local[m] = ([d[0]], [d[1]])
                else:
                    lists[0].append(d[0])
                    lists[1].append(d[1])
        for pos, (m, lists) in enumerate(local.items()):
            key = (fd, pos)
            cur = first_key.get(m)
            if cur is None:
                first_key[m] = key
                macro_mult[m] = [empty_f] * npat
                macro_add[m] = [empty_f] * npat
            elif key < cur:
                first_key[m] = key
            macro_mult[m][i] = (
                np.concatenate(lists[0]) if len(lists[0]) > 1
                else lists[0][0]
            )
            macro_add[m][i] = (
                np.concatenate(lists[1]) if len(lists[1]) > 1
                else lists[1][0]
            )
    # First-ever touches create the MULT then ADD records exactly where
    # the direct path's first row would have (global first-touch order).
    for _key, m in sorted(
        (key, m) for m, key in first_key.items() if m not in seen
    ):
        seen.add(m)
        stats = macros[m].stats
        stats.records[mult_op]
        stats.records[add_op]
    for m, mult_parts in macro_mult.items():
        stats = macros[m].stats
        lens = np.array([len(v) for v in mult_parts], dtype=np.intp)
        flat = np.concatenate(mult_parts) if npat > 1 else mult_parts[0]
        record = stats.records[mult_op]
        record.energy_j = _fold(record.energy_j, [gather(flat, lens)])
        add_parts = macro_add[m]
        lens = np.array([len(v) for v in add_parts], dtype=np.intp)
        flat = np.concatenate(add_parts) if npat > 1 else add_parts[0]
        record = stats.records[add_op]
        record.energy_j = _fold(record.energy_j, [gather(flat, lens)])
    # --- integer counters (order-free: batch by signature occurrence) --- #
    sig_counts: Dict[int, List] = {}
    for i, p in enumerate(patterns):
        c = int(pattern_counts[i])
        for s in p:
            item = sig_counts.get(id(s))
            if item is None:
                sig_counts[id(s)] = [s, c]
            else:
                item[1] += c
    acc = engine._macro_cycle_acc
    counters = engine.counters
    cache = engine.cache
    entries = cache._entries
    for s, count in sig_counts.values():
        for m, d in s.per_macro.items():
            stats = macros[m].stats
            record = stats.records[mult_op]
            record.invocations += d[2] * count
            record.words += d[3] * count
            record.cycles += d[4] * count
            record = stats.records[add_op]
            record.invocations += d[3] * count
            record.words += d[3] * count
            record.cycles += d[5] * count
            macros[m].array.access_count += d[6] * count
            acc[m] += d[7] * count
        counters.mac_count += s.mac_count * count
        counters.matmul_calls += s.n_layers * count
        cache.hits += s.n_layers * count
        for layer_id in s.layer_ids:
            entries[layer_id].hits += count
    for m in first_key:
        macros[m].stats.array_accesses = macros[m].array.access_count
    # --- LRU order: untouched entries keep their order, touched entries
    # move to the end in last-touch order (== replaying every lookup).
    # The global tick order is dispatch-major / in-pattern-minor, so a
    # layer's last touch is the max (last dispatch of a containing
    # pattern, position within that pattern) pair. ---------------------- #
    last_key: Dict[str, tuple] = {}
    for i, p in enumerate(patterns):
        ld = int(last_disp[i])
        pos = 0
        for s in p:
            for layer_id in s.layer_ids:
                key = (ld, pos)
                cur = last_key.get(layer_id)
                if cur is None or key > cur:
                    last_key[layer_id] = key
                pos += 1
    for layer_id, _ in sorted(last_key.items(), key=lambda kv: kv[1]):
        entries.move_to_end(layer_id)
    # --- per-dispatch energies -> deferred telemetry rows --------------- #
    # Per dispatch the direct path folds its slice deltas left to right
    # from 0.0; replicate element-wise, one vector op per slice position.
    denergy = np.zeros(ndisp, dtype=np.float64)
    starts_s = np.cumsum(slices_per_disp) - slices_per_disp
    for step in range(int(slices_per_disp.max(initial=0))):
        mask = slices_per_disp > step
        denergy[mask] = denergy[mask] + slice_deltas[starts_s[mask] + step]
    row_indexes = buf.row_indexes
    if row_indexes:
        shares = denergy[np.asarray(buf.ordinals, dtype=np.intp)]
        if buf.any_fraction:
            shares_list = shares.tolist()
            for k, fraction in enumerate(buf.fractions):
                if fraction is not None:
                    shares_list[k] = shares_list[k] * fraction
            shares = np.asarray(shares_list, dtype=np.float64)
        else:
            shares_list = shares.tolist()
        telemetry.set_energy_batch(row_indexes, shares_list)
        node_tel = node.telemetry
        node_tel.energy_j = _fold(node_tel.energy_j, [shares])
    buf.reset()


class NodeCache:
    """Per-node derived state, validated on access against the live node.

    ``engine``/``ptiles`` detect any (re-)programming or retune — evictions
    only happen inside inserts, so ``programmed_tiles`` versions the whole
    weight-cache content; ``degrade`` keys the estimate cache the same way
    the node's own estimate memo does.
    """

    __slots__ = (
        "engine", "ptiles", "degrade", "hazard", "cycle_time",
        "estimates", "fast_ok", "ssigs", "dsigs", "turbo",
    )
