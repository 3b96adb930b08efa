"""Persisted IVF-flat ANN index (beyond the reference): build once, query
many times, with TRUE partition pruning at query time.

`ops.similarity.ivf_topk` trains centroids and scans the whole Dataset per
call — right when the corpus is already in flight, wrong when the same
corpus serves many query batches. `IvfIndex` persists each inverted cell as
its own Parquet directory, one subdirectory per committed increment:

    index_dir/meta-NNNNNNNN.json               the commit log: entry N =
                                               centroids (f32), params, count,
                                               incr: N, live_incrs
    index_dir/cells/incr-00000K/c=J/*.parquet  (id, vec) nearest to centroid J

so a query with ``nprobe`` probes READS only the probed cells from storage —
at a 10^9-vector corpus with 4096 cells and nprobe=16, that is 0.4% of the
bytes a full scan moves. Appends assign new vectors to the existing
centroids and add a new increment directory (no retrain; centroid drift is
handled by ``rebuild=True``).

Crash-rerun safety and the commit log mirror `MinHashDedupIndex`: cell
files land in an increment directory that only becomes visible when the
log commit (``fsio.log_commit``, create-if-absent, LAST step) adds it to
``live_incrs``; a build/append that crashed mid-write leaves an orphan
directory that the re-run deletes and rewrites, so re-running can never
double-insert vectors into query results, and a second handle committing
the same ``incr`` gets ``ConcurrentCommitError``. Every entry carries the
centroids, so ``compact()`` prunes the entries it supersedes; an index with
only a legacy mutable ``meta.json`` opens from it and its next commit starts
the log.

All storage goes through ``pyarrow.fs`` (``filesystem=`` injectable), so the
index can live on an object store, not just local disk.

Scoring is exact within probed cells (IVF-flat): cosine via one matmul per
batch against the broadcast query matrix, merged with the same top-k
exchange on query_idx (plain Ray tasks, ``similarity._merge_topk``) as the
other similarity paths.
"""
from __future__ import annotations

import posixpath

import numpy as np
import pyarrow as pa

from wrangler_ray.ops import fsio
from wrangler_ray.ops.similarity import (
    _BatchTopK,
    _merge_topk,
    _normalize,
    _train_centroids,
    vecs_np,
)


class IvfIndex:
    def __init__(self, index_dir: str, filesystem=None):
        self.fs, self.index_dir = fsio.resolve_fs(index_dir, filesystem)
        self._cells = posixpath.join(self.index_dir, "cells")
        self.meta = fsio.index_meta(self.fs, self.index_dir)

    @property
    def centroids(self) -> np.ndarray:
        return np.asarray(self.meta["centroids"], np.float32)

    def _incr_dir(self, j: int) -> str:
        return posixpath.join(self._cells, f"incr-{int(j):06d}")

    def _committed_incr_dirs(self) -> list[str]:
        return [self._incr_dir(j) for j in self.meta["live_incrs"]]

    def compact(self) -> int:
        """Fold every committed increment into ONE consolidated increment —
        after many appends each probed cell spans many small files (read
        amplification grows with append count); compaction restores one file
        set per cell. Crash-safe like build/append: the consolidated
        increment only becomes visible at the log commit, which switches
        ``live_incrs`` to it; the old increment directories and the log
        entries it supersedes are deleted AFTER the commit (a crash between
        commit and cleanup leaves dead dirs that the next compact's
        ``fsio.vacuum_orphan_incrs`` sweeps before the ≤1-live-dir early
        return). Returns rows compacted."""
        import ray.data as rd

        if self.meta is None:
            raise ValueError("index not built")
        fsio.vacuum_orphan_incrs(self.fs, [self._cells], self.meta)
        old_dirs = self._committed_incr_dirs()
        if len(old_dirs) <= 1:
            return 0
        k = self.meta["incr"]
        files = [
            f for d in old_dirs for f in fsio.list_parquet(self.fs, d, recursive=True)
        ]
        # cell assignment is deterministic from the frozen centroids, so the
        # consolidated increment is just a re-run of assign-and-write over
        # the raw (id, vec) rows — same c for every vector. columns= drops
        # the hive partition column pyarrow infers from the file PATHS
        # (which would collide with the fresh assignment)
        ds = rd.read_parquet(
            files,
            columns=[self.meta["id_col"], self.meta["vec_col"]],
            filesystem=self.fs,
        )
        n = self._assign_and_write(ds, self.meta["vec_col"], self.meta["id_col"])
        self.meta = fsio.index_commit(self.fs, self.index_dir, self.meta, live_incrs=[k])
        for d in old_dirs:
            fsio.delete_dir(self.fs, d)
        fsio.log_prune(self.fs, self.index_dir, fsio.INDEX_LOG, k + 1)
        return n

    def _assign_and_write(self, ds, vec_col: str, id_col: str) -> int:
        """Assign every vector to its nearest centroid and write one
        partitioned Parquet tree under the NEXT increment directory (the
        pruning unit). The caller commits afterwards — until then the
        directory is an invisible orphan, so a crashed attempt re-runs
        cleanly (we delete any leftover first; write_parquet generates fresh
        file names, which would otherwise double every vector). A stale
        handle fails before it deletes anything: the directory may be
        another handle's committed increment."""
        cent = self.centroids
        k = fsio.index_next_incr(self.fs, self.index_dir, [self._cells], self.meta)
        incr_dir = self._incr_dir(k)

        def tag(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return t.append_column("c", pa.array([], pa.int32()))
            a = (_normalize(vecs_np(t.column(vec_col))) @ cent.T).argmax(axis=1)
            return t.append_column("c", pa.array(a.astype(np.int32)))

        # materialized once: count() and write_parquet() would otherwise each
        # re-execute the assignment pipeline
        tagged = (
            ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True)
            .select_columns([id_col, vec_col, "c"])
            .materialize()
        )
        n = tagged.count()
        tagged.write_parquet(incr_dir, partition_cols=["c"], filesystem=self.fs)
        return n

    def build(
        self,
        ds,
        vec_col: str = "embedding",
        id_col: str = "vec_id",
        num_clusters: int = 64,
        train_size: int = 4096,
        kmeans_iters: int = 8,
        seed: int = 7,
    ) -> dict:
        """Train centroids on a seeded random sample (never the first blocks
        — storage order is not random) and write every cell."""
        if self.meta is not None:
            raise ValueError(f"index at {self.index_dir} already built")
        cent = _train_centroids(ds, vec_col, num_clusters, train_size, kmeans_iters, seed)
        self.fs.create_dir(self.index_dir, recursive=True)
        self.meta = {
            "centroids": [[float(v) for v in row] for row in cent],
            "vec_col": vec_col,
            "id_col": id_col,
            "count": 0,
            "incr": 0,
            "live_incrs": [],
        }
        n = self._assign_and_write(ds, vec_col, id_col)
        self.meta = fsio.index_commit(
            self.fs, self.index_dir, self.meta, count=n, live_incrs=[0]
        )
        return {"cells": len(cent), "count": self.meta["count"]}

    def append(self, ds) -> int:
        """Assign new vectors to the EXISTING centroids and write them as a
        new committed increment. No retrain — run build on a fresh dir when
        drift matters."""
        if self.meta is None:
            raise ValueError("index not built")
        n = self._assign_and_write(ds, self.meta["vec_col"], self.meta["id_col"])
        self.meta = fsio.index_commit(
            self.fs,
            self.index_dir,
            self.meta,
            count=self.meta["count"] + n,
            live_incrs=self.meta["live_incrs"] + [self.meta["incr"]],
        )
        return n

    def query(self, queries: np.ndarray, k: int = 10, nprobe: int = 4) -> pa.Table:
        """Exact cosine top-k within the probed cells, reading ONLY those
        cells' Parquet from storage (partition pruning — the reason this
        index exists), and only from COMMITTED increments (orphans from a
        crashed write are invisible)."""
        import ray
        import ray.data as rd

        if self.meta is None:
            raise ValueError("index not built")
        queries = np.asarray(queries, np.float32)
        if queries.ndim == 1:
            queries = queries[None, :]
        cent = self.centroids
        probes = np.argsort(-(_normalize(queries) @ cent.T), axis=1)[:, :nprobe]
        cells = np.unique(probes.ravel())
        files = []
        for incr_dir in self._committed_incr_dirs():
            for c in cells:
                files.extend(
                    fsio.list_parquet(self.fs, posixpath.join(incr_dir, f"c={c}"))
                )
        if not files:
            return pa.table(
                {"query_idx": pa.array([], pa.int64()),
                 self.meta["id_col"]: pa.array([], pa.int64()),
                 "score": pa.array([], pa.float32())}
            )
        ds = rd.read_parquet(
            files,
            columns=[self.meta["id_col"], self.meta["vec_col"]],
            filesystem=self.fs,
        )
        qref = ray.put(queries)
        partials = ds.map_batches(
            _BatchTopK(qref, k, self.meta["vec_col"], self.meta["id_col"]),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        return _merge_topk(partials, k, self.meta["id_col"])
