"""Distributed connected components (min-label propagation) over an edge
Dataset — the scale path for dedup clustering when the candidate-edge set
exceeds driver memory (wrangler_ray.ops.dedup clusters edges on the driver
with a vectorized min-label kernel while the distinct edge set fits
``max_driver_edges``, and auto-routes here past that cap — always, with
``max_driver_edges=0``).

Algorithm: iterative min-label propagation.
    label(u) ← min(u, neighbors(u))                    (init)
    label(v) ← min(label(v), min_{(u,v)∈E} label(u))   (iterate)

Execution shape: NO ``Dataset.join`` (Ray 2.49's hash-join aggregator rejects
the empty partitions that tiny/skewed key spaces produce). Each iteration is
one bucketed ``groupby().map_groups`` — label rows and edge rows are unioned,
co-partitioned by a coarse hash bucket of the node id, and a vectorized
pandas merge inside each bucket emits the label offers — followed by one
``groupby(node).min`` reduce. Work per iteration is O(|E|/cluster) with no
driver-resident state. Converges in O(diameter) iterations; LSH candidate
graphs are unions of stars around the min-id doc, so 2-3 iterations is
typical. Convergence = the (count, sum) signature of the label table going
stable (labels only ever decrease, so a stable sum is a fixed point).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

_EMPTY_LABELS = pa.table({"u": pa.array([], pa.int64()), "label": pa.array([], pa.int64())})


def _clean_labels(t: pa.Table) -> pa.Table:
    """Normalize any (possibly schema-less empty) block to (u, label) int64 —
    empty groupby partitions otherwise emit blocks with no schema."""
    if t.num_rows == 0 or "u" not in t.column_names:
        return _EMPTY_LABELS
    return pa.table(
        {"u": t.column("u").cast(pa.int64()), "label": t.column("label").cast(pa.int64())}
    )


def connected_components(edges, max_iters: int = 25, num_buckets: int = 64):
    """``edges``: Dataset with int64 columns (a, b). Returns a Dataset of
    (node, label) where ``label`` is the minimum node id of the component —
    i.e. the cluster representative. Only nodes that appear in an edge are
    returned."""
    from ray.data.aggregate import Min

    def symmetrize(t: pa.Table) -> pa.Table:
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        b = t.column("b").to_numpy(zero_copy_only=False).astype(np.int64)
        k = np.concatenate([a, b])
        v = np.concatenate([b, a])
        return pa.table(
            {
                "k": pa.array(k, pa.int64()),
                "val": pa.array(v, pa.int64()),
                "is_lab": pa.array(np.zeros(len(k), np.int8)),
                "_b": pa.array((k % num_buckets).astype(np.int32)),
            }
        )

    E = edges.map_batches(
        symmetrize, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def lab_rows(t: pa.Table) -> pa.Table:
        t = _clean_labels(t)
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "k": pa.array(u, pa.int64()),
                "val": t.column("label").cast(pa.int64()),
                "is_lab": pa.array(np.ones(len(u), np.int8)),
                "_b": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    def offers(g: pa.Table) -> pa.Table:
        # one coarse bucket: nodes' current labels + their out-edges.
        # vectorized: label per node, then a pandas merge edges⋈labels.
        # NOTE: the emitted offers are keyed on the edge's OTHER endpoint,
        # which may live in a different bucket — the per-u min happens in the
        # NEXT round's bucket (or the final reduce below).
        if g.num_rows == 0 or "k" not in g.column_names:
            return _EMPTY_LABELS
        df = g.to_pandas()
        labs = df[df["is_lab"] == 1].groupby("k", sort=False)["val"].min()
        e = df[df["is_lab"] == 0]
        off = e.merge(labs.rename("label"), left_on="k", right_index=True)
        out_u = np.concatenate([off["val"].to_numpy(np.int64), labs.index.to_numpy(np.int64)])
        out_l = np.concatenate([off["label"].to_numpy(np.int64), labs.to_numpy(np.int64)])
        # pre-reduce within the bucket: one row per (u) for offers that land
        # here; cross-bucket duplicates are merged by the global Min reduce
        red = pd.DataFrame({"u": out_u, "label": out_l}).groupby(
            "u", sort=False, as_index=False
        )["label"].min()
        return pa.table(
            {"u": pa.array(red["u"].to_numpy(np.int64)),
             "label": pa.array(red["label"].to_numpy(np.int64))}
        )

    # init: label(u) = min(u, min neighbor)
    labels = E.groupby("k").aggregate(Min("val", alias_name="label"))

    def clamp_self(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "k" not in t.column_names:
            return _EMPTY_LABELS
        u = t.column("k").to_numpy(zero_copy_only=False).astype(np.int64)
        l = t.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"u": pa.array(u, pa.int64()), "label": pa.array(np.minimum(u, l), pa.int64())}
        )

    labels = labels.map_batches(
        clamp_self, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    def signature(lab) -> tuple:
        # ONE Ray job for the (count, sum) convergence check, not two
        from ray.data.aggregate import Count, Sum

        agg = lab.aggregate(Count(alias_name="n"), Sum("label", alias_name="s"))
        return (agg["n"], agg["s"])

    prev_sig = signature(labels)
    for _ in range(max_iters):
        tagged = labels.map_batches(
            lab_rows, batch_format="pyarrow", zero_copy_batch=True
        )
        cand = E.union(tagged).groupby("_b").map_groups(offers, batch_format="pyarrow")
        labels = (
            cand.groupby("u")
            .aggregate(Min("label", alias_name="label"))
            .map_batches(_clean_labels, batch_format="pyarrow", zero_copy_batch=True)
            .materialize()
        )
        sig = signature(labels)
        if sig == prev_sig:
            break
        prev_sig = sig
    return labels


def drop_non_representatives(ds, labels, id_col: str = "doc_id",
                             num_buckets: int = 64):
    """Keep rows whose id is its component's representative (label == id) or
    that belong to no component (never appeared in an edge). One bucketed
    groupby over the union of data rows and label rows — no driver-resident
    membership set and no Dataset.join."""

    def tag_data(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.append_column("_cc_side", pa.array(np.zeros(len(ids), np.int8)))
        t = t.append_column("_cc_label", pa.nulls(len(ids), pa.int64()))
        return t.append_column("_b", pa.array((ids % num_buckets).astype(np.int32)))

    def tag_labels(t: pa.Table) -> pa.Table:
        t = _clean_labels(t)
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                id_col: pa.array(u, pa.int64()),
                "_cc_side": pa.array(np.ones(len(u), np.int8)),
                "_cc_label": t.column("label").cast(pa.int64()),
                "_b": pa.array((u % num_buckets).astype(np.int32)),
            }
        )

    data = ds.map_batches(tag_data, batch_format="pyarrow", zero_copy_batch=True)
    labs = labels.map_batches(tag_labels, batch_format="pyarrow", zero_copy_batch=True)

    def keep(g: pa.Table) -> pa.Table:
        if g.num_rows == 0 or "_cc_side" not in g.column_names:
            return pa.table({})
        df = g.to_pandas()
        lab_map = df[df["_cc_side"] == 1].set_index(id_col)["_cc_label"]
        rows = df[df["_cc_side"] == 0]
        lab = rows[id_col].map(lab_map)
        keep_mask = lab.isna() | (lab == rows[id_col])
        out = rows[keep_mask].drop(columns=["_cc_side", "_cc_label", "_b"])
        return pa.Table.from_pandas(out, preserve_index=False).replace_schema_metadata(None)

    return data.union(labs).groupby("_b").map_groups(keep, batch_format="pyarrow")
