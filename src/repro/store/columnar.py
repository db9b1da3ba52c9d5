"""Columnar campaign backend: compressed npz record blocks.

An optional, NumPy-backed compact format for record-heavy campaigns:
appends accumulate in memory and every ``flush_every`` records are
written as one ``block-NNNNN.npz`` file in which each record field is a
column (native dtype where the column is uniformly bool/int/float/str,
a JSON-string column otherwise, nullable ints via a sidecar mask).
Compressed columns of near-constant sweep metadata shrink dramatically
versus JSON lines, and loads touch one decoded array per field instead
of one ``json.loads`` per record.

Same :class:`~repro.store.base.ResultStore` protocol, same resume
semantics: :meth:`ColumnarStore.claim_keys` replays the blocks in
order (later duplicate keys win) and :meth:`iter_records` streams one
block at a time, so analysis never materialises the campaign.  Blocks
are written atomically (temp file + rename), so a hard kill can never
leave a torn block — it only forfeits the unflushed in-memory buffer,
whose tasks simply re-run, bounded by ``flush_every``.

NumPy is import-gated: this is the only runtime module that imports
it, and only when a :class:`ColumnarStore` is constructed.  Without
NumPy that construction raises a clear error and every other backend
keeps working.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, List, Optional

from repro.store.base import (
    ParseFn,
    Record,
    ResultStore,
    StoreMismatchError,
    ValidatorFn,
)

#: Format tag written to (and required from) columnar manifests.
COLUMNAR_FORMAT = "repro-store/columnar-v1"

#: The manifest file inside every columnar campaign directory.
MANIFEST_NAME = "manifest.json"


def _require_numpy() -> Any:
    """Import NumPy or explain how to get the columnar backend."""
    try:
        import numpy
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise ImportError(
            "the columnar store needs NumPy (install the package's "
            "dev extras, or use --store jsonl/sharded)"
        ) from exc
    return numpy


def _encode_column(values: List[Any], np: Any) -> Any:
    """Encode one field's values as (kind, array[, mask]).

    Kinds: ``b`` bool, ``i`` int, ``I`` nullable int (sidecar mask),
    ``f`` float, ``s`` str, ``j`` JSON-encoded fallback for anything
    mixed or nested (e.g. a search record's genome document).  bool is
    checked before int because Python bools are ints.
    """
    if all(isinstance(v, bool) for v in values):
        return "b", np.asarray(values, dtype=np.bool_), None
    if all(type(v) is int for v in values):
        return "i", np.asarray(values, dtype=np.int64), None
    if all(v is None or type(v) is int for v in values):
        mask = np.asarray([v is None for v in values], dtype=np.bool_)
        filled = [0 if v is None else v for v in values]
        return "I", np.asarray(filled, dtype=np.int64), mask
    if all(type(v) is float for v in values):
        return "f", np.asarray(values, dtype=np.float64), None
    if all(isinstance(v, str) for v in values):
        return "s", np.asarray(values, dtype=np.str_), None
    encoded = [json.dumps(v, sort_keys=True) for v in values]
    return "j", np.asarray(encoded, dtype=np.str_), None


def _decode_column(kind: str, column: Any, mask: Any) -> List[Any]:
    """Invert :func:`_encode_column` back to plain Python values."""
    if kind == "b":
        return [bool(v) for v in column]
    if kind == "i":
        return [int(v) for v in column]
    if kind == "I":
        return [
            None if null else int(v) for v, null in zip(column, mask)
        ]
    if kind == "f":
        return [float(v) for v in column]
    if kind == "s":
        return [str(v) for v in column]
    if kind == "j":
        return [json.loads(str(v)) for v in column]
    raise ValueError(f"unknown column kind {kind!r}")


class ColumnarStore(ResultStore):
    """npz-block campaign backend (optional; needs NumPy).

    Args:
        root: The campaign directory (created on first flush).
        parse: Record codec (document → record with ``.key``).
        validator: Optional load-time validator hook.
        flush_every: Records buffered per block (default 512).  Also
            the durability granularity: a hard kill forfeits at most
            one buffer's worth of finished tasks.
        fingerprint: Optional campaign/spec fingerprint, checked
            against the manifest like the sharded backend.
    """

    backend = "columnar"

    def __init__(
        self,
        root: str,
        parse: ParseFn,
        validator: Optional[ValidatorFn] = None,
        flush_every: int = 512,
        fingerprint: Optional[str] = None,
    ) -> None:
        """Check NumPy, adopt any existing block inventory."""
        super().__init__(parse, validator)
        if flush_every < 1:
            raise ValueError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        self._np = _require_numpy()
        self.root = root
        self.flush_every = flush_every
        self.fingerprint = fingerprint
        self._buffer: List[Record] = []
        self._blocks: List[str] = []
        self._records = 0
        existing = self._read_manifest()
        if existing is not None:
            if existing.get("format") != COLUMNAR_FORMAT:
                raise ValueError(
                    f"{root} is not a {COLUMNAR_FORMAT} campaign "
                    f"(manifest format: {existing.get('format')!r})"
                )
            stored = existing.get("fingerprint")
            if (
                fingerprint is not None
                and stored is not None
                and stored != fingerprint
            ):
                raise StoreMismatchError(
                    f"campaign {root} was written for a different spec "
                    f"(fingerprint {stored} != {fingerprint}); use a "
                    "fresh --results directory per spec"
                )
            if fingerprint is None:
                self.fingerprint = stored
            self._blocks = list(existing.get("blocks", []))
            self._records = int(existing.get("records", 0))
        elif os.path.isdir(root):
            # Manifest missing (foreign deletion): fall back to a
            # directory listing so the data still loads.
            self._blocks = sorted(
                name
                for name in os.listdir(root)
                if name.startswith("block-") and name.endswith(".npz")
            )

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------
    def claim_keys(self) -> Dict[str, Record]:
        """Replay every block (then the buffer) into a keyed map."""
        records: Dict[str, Record] = {}
        for record in self.iter_records():
            records[record.key] = record
        return records

    def iter_records(self) -> Iterator[Record]:
        """Stream records block by block, then the unflushed buffer."""
        for name in list(self._blocks):
            yield from self._load_block(name)
        yield from list(self._buffer)

    def append(self, record: Record) -> None:
        """Buffer one record; cut a block at ``flush_every``."""
        self._buffer.append(record)
        self._records += 1
        if len(self._buffer) >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write the buffer as one atomic block + manifest update."""
        if not self._buffer:
            return
        os.makedirs(self.root, exist_ok=True)
        name = f"block-{len(self._blocks):05d}.npz"
        self._write_block(name, self._buffer)
        self._blocks.append(name)
        self._buffer = []
        self._write_manifest()

    def manifest(self) -> Dict[str, Any]:
        """The campaign inventory (also persisted as manifest.json)."""
        return {
            "format": COLUMNAR_FORMAT,
            "backend": self.backend,
            "fingerprint": self.fingerprint,
            "records": self._records,
            "blocks": list(self._blocks),
        }

    def close(self) -> None:
        """Flush the tail block; nothing stays open between calls."""
        self.flush()

    # ------------------------------------------------------------------
    # Block codec
    # ------------------------------------------------------------------
    def _write_block(self, name: str, records: List[Record]) -> None:
        """Encode records column-wise into one compressed npz file."""
        np = self._np
        docs = [record.to_dict() for record in records]
        fields = list(docs[0].keys())
        arrays: Dict[str, Any] = {}
        kinds: List[str] = []
        for field in fields:
            values = [doc.get(field) for doc in docs]
            kind, column, mask = _encode_column(values, np)
            kinds.append(kind)
            arrays[f"col::{field}"] = column
            if mask is not None:
                arrays[f"mask::{field}"] = mask
        arrays["__schema__"] = np.asarray(
            json.dumps(
                {"fields": fields, "kinds": kinds, "count": len(docs)}
            ),
            dtype=np.str_,
        )
        path = os.path.join(self.root, name)
        tmp = path + ".tmp.npz"
        with open(tmp, "wb") as f:
            np.savez_compressed(f, **arrays)
        os.replace(tmp, path)

    def _load_block(self, name: str) -> Iterator[Record]:
        """Decode one block back into records, damage counted."""
        path = os.path.join(self.root, name)
        if not os.path.exists(path):
            return
        np = self._np
        try:
            with np.load(path, allow_pickle=False) as data:
                schema = json.loads(str(data["__schema__"][()]))
                fields = schema["fields"]
                count = int(schema["count"])
                columns = {}
                for field, kind in zip(fields, schema["kinds"]):
                    columns[field] = _decode_column(
                        kind,
                        data[f"col::{field}"],
                        data.get(f"mask::{field}"),
                    )
        except (OSError, ValueError, KeyError, TypeError):
            # A foreign or truncated block: count each lost record
            # slot we know about (at least one) and move on.
            self.health.skipped_lines += 1
            return
        for i in range(count):
            doc = {field: columns[field][i] for field in fields}
            try:
                record = self.parse(doc)
                record.key
            except (ValueError, KeyError, TypeError):
                self.health.skipped_lines += 1
                continue
            admitted = self.admit(record)
            if admitted is not None:
                yield admitted

    # ------------------------------------------------------------------
    # Manifest persistence
    # ------------------------------------------------------------------
    def _read_manifest(self) -> Optional[Dict[str, Any]]:
        """Load manifest.json, ``None`` if absent."""
        path = os.path.join(self.root, MANIFEST_NAME)
        if not os.path.exists(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as f:
                return json.load(f)
        except (ValueError, OSError) as exc:
            raise ValueError(
                f"unreadable campaign manifest {path}: {exc}"
            )

    def _write_manifest(self) -> None:
        """Atomically rewrite manifest.json (temp file + rename)."""
        path = os.path.join(self.root, MANIFEST_NAME)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.manifest(), f, indent=2, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
