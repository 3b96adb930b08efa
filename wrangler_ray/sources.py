"""Sources / sinks: thin Ray-Data-native layer over the formats the reference's
service connectors expose (SURVEY.md §2.14 — local/HDFS files, object stores,
databases all reduce to: bytes in a format at a path). Includes the
format-sniffing analog of service/FileTypeDetector.java.

All readers return ``ray.data.Dataset`` and accept the native Ray reader
kwargs (``columns=``, ``override_num_blocks=``, filesystem URIs) so column
pruning happens at the read.
"""

from __future__ import annotations

import os

_EXT_FORMAT = {
    ".parquet": "parquet",
    ".pq": "parquet",
    ".csv": "csv",
    ".tsv": "csv",
    ".json": "json",
    ".jsonl": "json",
    ".ndjson": "json",
    ".txt": "text",
    ".log": "text",
    ".avro": "avro",
    ".xml": "text",
    ".xlsx": "xlsx",
}

# transparent-compression suffixes: strip and sniff the inner extension
# (the Arrow csv/json readers decompress these natively)
_COMPRESSION_EXTS = {".gz", ".zst", ".bz2"}

_MAGIC = [
    (b"PAR1", "parquet"),
    (b"Obj\x01", "avro"),
    (b"{", "json"),
    (b"[", "json"),
]


def detect_format(path: str) -> str:
    """Sniff a file's format: extension first, magic bytes as fallback
    (reference service/FileTypeDetector.java semantics: best-effort, 'text'
    when unknown)."""
    if os.path.isdir(path):
        # a directory reads as whatever its first (sorted) data file is
        for name in sorted(os.listdir(path)):
            if not name.startswith((".", "_")):
                return detect_format(os.path.join(path, name))
        return "text"
    stem, ext = os.path.splitext(path)
    ext = ext.lower()
    if ext in _COMPRESSION_EXTS:  # x.csv.gz → sniff x.csv
        stem, ext = os.path.splitext(stem)
        ext = ext.lower()
    if ext in _EXT_FORMAT:
        return _EXT_FORMAT[ext]
    try:
        with open(path, "rb") as f:
            head = f.read(8)
        for magic, fmt in _MAGIC:
            if head.startswith(magic):
                return fmt
        # heuristic: a delimiter-dense first line is CSV
        with open(path, "rb") as f:
            line = f.readline(4096)
        if line.count(b",") >= 2:
            return "csv"
    except OSError:
        pass
    return "text"


def _is_tsv(path: str) -> bool:
    if path.lower().endswith(".tsv"):
        return True
    if os.path.isdir(path):
        return any(
            n.lower().endswith(".tsv")
            for n in sorted(os.listdir(path))
            if not n.startswith((".", "_"))
        )
    return False


def read_any(path: str, fmt: str | None = None, **kw):
    """Read a path with the right Ray Data reader (sniffed when fmt=None)."""
    import ray.data as rd

    fmt = fmt or detect_format(path)
    if fmt == "parquet":
        return rd.read_parquet(path, **kw)
    if fmt == "csv":
        # .tsv routes through the CSV reader but is tab-delimited — the
        # default ParseOptions would read each line as one comma-split cell
        if "parse_options" not in kw and _is_tsv(path):
            from pyarrow import csv as pacsv

            kw["parse_options"] = pacsv.ParseOptions(delimiter="\t")
        return rd.read_csv(path, **kw)
    if fmt == "json":
        return rd.read_json(path, **kw)
    if fmt == "text":
        return rd.read_text(path, **kw)
    if fmt == "binary":
        return rd.read_binary_files(path, **kw)
    if fmt == "avro":
        return _read_avro(path, **kw)
    if fmt == "xlsx":
        return _read_xlsx(path, **kw)
    raise ValueError(f"unknown format {fmt!r}")


def _read_xlsx(path: str, columns=None, sheet=0, **kw):
    """xlsx workbooks via the in-repo pure-stdlib OOXML decoder (the same
    one behind parse-as-excel): whole files distribute to tasks, each task
    decodes its workbook's first (or named) sheet to an Arrow table. Cells
    come back as STRINGS keyed by Excel column letter — a raw sheet mixes
    header and data types in one column, so string is the only stable
    schema; use the parse-as-excel directive for typed, header-aware
    parsing."""
    import pyarrow as pa
    import ray.data as rd

    def decode(batch: pa.Table) -> pa.Table:
        from wrangler_ray.directives.parsers import _xlsx_rows

        tabs = []
        for blob in batch.column("bytes").to_pylist():
            rows = [
                {k: (None if v is None else str(v)) for k, v in r.items()}
                for r in _xlsx_rows(bytes(blob), sheet)
            ]
            t = pa.Table.from_pylist(rows)
            tabs.append(t.select(list(columns)) if columns else t)
        if not tabs:
            return pa.Table.from_pylist([])
        return pa.concat_tables(tabs, promote_options="default")

    return rd.read_binary_files(path, **kw).map_batches(
        decode, batch_format="pyarrow", zero_copy_batch=True
    )


def _read_avro(path: str, columns=None, **kw):
    """Avro object-container files via the in-repo pure-python decoder (the
    same one behind parse-as-avro-file, directives/avro_reader.py):
    ``read_binary_files`` distributes WHOLE container files to tasks, each
    task decodes its file's blocks to an Arrow table. Parallelism is
    per-file — the natural Avro split unit here (block-level splitting needs
    a seekable sync-marker scan, which the one-shot read path skips)."""
    import pyarrow as pa
    import ray.data as rd

    def decode(batch: pa.Table) -> pa.Table:
        from wrangler_ray.directives.avro_reader import read_container

        tabs = []
        for blob in batch.column("bytes").to_pylist():
            _schema, records = read_container(blob)
            t = pa.Table.from_pylist(records)
            tabs.append(t.select(list(columns)) if columns else t)
        if not tabs:
            return pa.Table.from_pylist([])
        return pa.concat_tables(tabs, promote_options="default")

    return rd.read_binary_files(path, **kw).map_batches(
        decode, batch_format="pyarrow", zero_copy_batch=True
    )
