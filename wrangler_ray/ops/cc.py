"""Connected components as rounds of plain Ray tasks (min-label
propagation): the clustering of the near-dup tail
(``wrangler_ray.ops.dedup``), for every variant and every input size.

Nodes are partitioned by ``id % parts`` on the dedup task exchange
(``wrangler_ray.tasks``). The task that finds the edges also splits both
directions of every edge by their source node (``adjacency``); then each
partition's task, per round:

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

``drop_non_representatives`` takes the rows split on the same ``id %
parts`` (``split_rows``) and filters each partition's rows by its
non-minimum ids: Arrow only, so the rows keep their schema.
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
    live_refs,
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


def adjacency(parts: int, edges) -> tuple:
    """Both directions (k, v) of every edge (a, b) of the table or block
    ``edges``, split on ``k % parts`` (see ``split``): what ``components``
    takes, returned by the task that finds the edges."""
    edges = to_arrow(edges)
    a = edges.column("a").to_numpy().astype(np.int64)
    b = edges.column("b").to_numpy().astype(np.int64)
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


def components(adj: list, parts: int) -> list:
    """Per partition ``p < parts``: ``(ref, block_meta)`` of the (u, label)
    table of the nodes ``u ≡ p (mod parts)`` of the graph whose edges
    ``adj`` holds (``(counts, part refs)`` map outputs of ``adjacency``),
    label the minimum id of u's component, or None when no node falls in
    ``p``."""
    live = [p for p in range(parts) if part_refs(adj, p)]
    first = _run_tasks(functools.partial(_first_round, parts),
                       [part_refs(adj, p) for p in live], num_returns=parts + 3)
    own, labels, sent = {}, {}, []
    for p, ((counts, meta), refs) in zip(live, first):
        own[p], labels[p] = refs[0], (refs[1], meta)
        sent.append((counts, refs[2:]))
    while any(counts.any() for counts, _ in sent):
        to = {p: offers for p in labels if (offers := part_refs(sent, p))}
        out = _run_tasks(functools.partial(_relabel, parts),
                         [(own[p], labels[p][0], *offers) for p, offers in to.items()],
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
    parts = num_parts(sum(n for _, n in blocks))
    adj = _run_tasks(functools.partial(adjacency, parts), [ref for ref, n in blocks if n],
                     num_returns=parts + 1)
    return _from_blocks([lab for lab in components(adj, parts) if lab is not None])


def _keep_representatives(id_col: str, labels, *tables) -> tuple:
    """Filter task of one partition: its rows minus the non-minimum ids of
    its ``labels`` (None when no node fell in the partition)."""
    t = concat_reconciled(list(tables))
    if labels is not None and t.num_rows:
        u = labels.column("u").to_numpy()
        drop = u[u != labels.column("label").to_numpy()]
        t = t.filter(pa.array(~np.isin(t.column(id_col).to_numpy(zero_copy_only=False), drop)))
    return block_meta(t), t


def split_rows(blocks: list, col: str, parts: int) -> list:
    """The ``split_on(col, parts)`` map outputs of the ``(ref, rows)``
    ``blocks``, such as the rows ``drop_non_representatives`` filters. With
    no rows at all, the first block's empty split keeps the rows'
    schema."""
    return _run_tasks(functools.partial(split_on, col, parts), live_refs(blocks),
                      num_returns=parts + 1)


def drop_non_representatives(rows: list, labels: list, id_col: str = "doc_id") -> list:
    """``(ref, block_meta)`` blocks of the rows whose id is its component's
    representative (label == id) or in no component. ``rows`` are the
    rows' map outputs split on ``id % len(labels)`` (``split_rows``), and
    ``labels`` is ``components``' output: each partition's rows meet its
    labels in one task."""
    args = [(labels[p] and labels[p][0], *part)
            for p in range(len(labels)) if (part := part_refs(rows, p))]
    if not args and rows:  # no rows: one empty part keeps the schema
        args = [(None, rows[0][1][0])]
    out = _run_tasks(functools.partial(_keep_representatives, id_col), args, num_returns=2)
    return [(refs[0], meta) for meta, refs in out]
