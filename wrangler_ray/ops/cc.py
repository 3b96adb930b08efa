"""Connected components as rounds of plain Ray tasks (min-label
propagation): the clustering of the near-dup tail once the distinct
candidate edges pass the driver cap (``wrangler_ray.ops.dedup`` clusters
them on the driver below it, and always routes here with
``max_driver_edges=0``).

Nodes are partitioned by ``id % parts`` on the dedup task exchange
(``wrangler_ray.tasks``). One map task per edge table splits both
directions of every edge by their source node; then each partition's
task, per round:

    label(u) ← min(label(u), labels offered to u)       (label(u) = u at first)
    label(u) ← min label of u's component within the partition's own edges
    offer label(u) to each neighbour in another partition, for every u
    whose label changed

The metadata a task returns is its count of changed labels sent to each
partition; the rounds stop when no task sends one, and only partitions
that were sent one run the next round. A label only ever falls and is
always a node of the component, so at that fixed point every component
carries its minimum id. The number of rounds follows how often a path
crosses partitions, not a fixed cap; one partition converges in the
first round.

``drop_non_representatives`` splits the rows on the same ``id % parts``
and filters each partition's rows by its non-minimum ids with
``_drop_ids``, the driver route's filter: Arrow only, so the rows keep
their schema.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa

from wrangler_ray.core.schema import concat_reconciled
from wrangler_ray.tasks import (
    _from_blocks,
    _run_tasks,
    block_meta,
    block_refs,
    num_parts,
    part_refs,
    split,
    split_on,
    to_arrow,
)


def _roots(ea: np.ndarray, eb: np.ndarray, n: int) -> np.ndarray:
    """The root of each node ``0..n-1`` under the edges ``(ea, eb)``: the
    smallest node of its component. Each round hooks the larger root of
    every edge that still spans two trees onto the smaller one
    (scatter-min), then pointer-jumps every node to its root. Every round
    removes at least one root per live edge; pointer jumping makes a long
    chain take O(log n) jumps, not O(n) rounds."""
    parent = np.arange(n)
    while True:
        ra, rb = parent[ea], parent[eb]
        live = ra != rb  # an edge inside one tree stays inside it
        if not live.any():
            return parent
        ea, eb, ra, rb = ea[live], eb[live], ra[live], rb[live]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def _both_ways(parts: int, block) -> tuple:
    """Map task: both directions (k, v) of every edge (a, b) of ``block``,
    split on ``k % parts``."""
    t = to_arrow(block)
    a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
    b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
    k = np.concatenate([a, b])
    return split(pa.table({"k": k, "v": np.concatenate([b, a])}), k % parts, parts)


def _relabel(parts: int, adj: pa.Table, labels, *offers) -> tuple:
    """One round of one partition: ``((changed labels sent per partition,
    the labels' block_meta), labels (u, label), offers to partition 0, …)``
    from its adjacency ``adj`` (k, v), its ``labels`` (None in the first
    round) and the offers (u, label) sent to it."""
    k = adj.column("k").to_numpy()
    v = adj.column("v").to_numpy()
    if labels is None:
        nodes, old = np.unique(k), None
        lab = nodes.copy()
    else:
        nodes, old = labels.column("u").to_numpy(), labels.column("label").to_numpy()
        lab = old.copy()
    if offers:
        o = pa.concat_tables(offers)
        np.minimum.at(lab, np.searchsorted(nodes, o.column("u").to_numpy()),
                      o.column("label").to_numpy())
    local = v % parts == nodes[0] % parts
    root = _roots(np.searchsorted(nodes, k[local]), np.searchsorted(nodes, v[local]),
                  len(nodes))
    low = lab.copy()
    np.minimum.at(low, root, lab)
    new = low[root]
    ik = np.searchsorted(nodes, k)
    send = ~local
    if old is not None:
        send &= (new != old)[ik]
    counts, *out = split(pa.table({"u": v[send], "label": new[ik[send]]}),
                         v[send] % parts, parts)
    labels = pa.table({"u": nodes, "label": new})
    return ((counts, block_meta(labels)), labels, *out)


def _first_round(parts: int, *tables) -> tuple:
    """The first round of one partition over its adjacency parts: as
    ``_relabel``, with the concatenated adjacency returned second."""
    adj = pa.concat_tables(tables)
    meta, *rest = _relabel(parts, adj, None)
    return (meta, adj, *rest)


def components(edges: list, parts: int) -> list:
    """Per partition ``p < parts``: ``(ref, block_meta)`` of the (u, label)
    table of the nodes ``u ≡ p (mod parts)`` of the edge tables ``edges``
    (``(ref, rows)`` pairs with int columns a, b), label the minimum id of
    u's component, or None when no node falls in ``p``."""
    sym = _run_tasks(functools.partial(_both_ways, parts),
                     [ref for ref, n in edges if n], num_returns=parts + 1)
    live = [p for p in range(parts) if part_refs(sym, p)]
    first = _run_tasks(functools.partial(_first_round, parts),
                       [part_refs(sym, p) for p in live], num_returns=parts + 3)
    adj, labels, sent = {}, {}, []
    for p, ((counts, meta), refs) in zip(live, first):
        adj[p], labels[p] = refs[0], (refs[1], meta)
        sent.append((counts, refs[2:]))
    while any(counts.any() for counts, _ in sent):
        to = {p: offers for p in labels if (offers := part_refs(sent, p))}
        out = _run_tasks(functools.partial(_relabel, parts),
                         [(adj[p], labels[p][0], *offers) for p, offers in to.items()],
                         num_returns=parts + 2)
        sent = []
        for p, ((counts, meta), refs) in zip(to, out):
            labels[p] = (refs[0], meta)
            sent.append((counts, refs[1:]))
    return [labels.get(p) for p in range(parts)]


def connected_components(edges):
    """``edges``: Dataset with int columns (a, b). Returns a materialized
    Dataset of (u, label) where ``label`` is the minimum node id of u's
    component, i.e. the cluster representative. Only nodes that appear in
    an edge are returned."""
    blocks = block_refs(edges)
    labels = components(blocks, num_parts(sum(n for _, n in blocks)))
    return _from_blocks([lab for lab in labels if lab is not None])


def _drop_ids(id_col: str, drop_arr: np.ndarray, block) -> tuple:
    """Survivor-filter task: the rows of ``block`` whose id is not in
    ``drop_arr``."""
    t = to_arrow(block)
    if len(drop_arr) and t.num_rows:
        ids = t.column(id_col).to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(~np.isin(ids, drop_arr)))
    return block_meta(t), t


def _keep_representatives(id_col: str, labels, *tables) -> tuple:
    """Filter task of one partition: its rows minus the non-minimum ids of
    its ``labels`` (None when no node fell in the partition)."""
    drop = np.empty(0, np.int64)
    if labels is not None:
        u = labels.column("u").to_numpy()
        drop = u[u != labels.column("label").to_numpy()]
    return _drop_ids(id_col, drop, concat_reconciled(list(tables)))


def drop_non_representatives(blocks: list, labels: list, id_col: str = "doc_id") -> list:
    """``(ref, block_meta)`` blocks of the rows of ``blocks`` whose id is its
    component's representative (label == id) or in no component.
    ``labels`` is ``components``' output: the rows, split on ``id %
    len(labels)``, meet their partition's labels in one task."""
    parts = len(labels)
    maps = _run_tasks(functools.partial(split_on, id_col, parts),
                      [ref for ref, n in blocks if n], num_returns=parts + 1)
    args = [(labels[p] and labels[p][0], *rows)
            for p in range(parts) if (rows := part_refs(maps, p))]
    out = _run_tasks(functools.partial(_keep_representatives, id_col), args, num_returns=2)
    return [(refs[0], meta) for meta, refs in out]
