"""Persistent store of canonical p-adic roots.

The cache makes residue construction coherent across moduli and across
process restarts: for a given polynomial and prime it always hands back the
same p-adic root, only ever extended in precision, never replaced by a
different residue class. The on-disk format is a line-oriented append-only
text file, one entry per line:

    <poly-hash> <p> <k> <r> <0|1>

Later lines for the same (poly-hash, p) pair supersede earlier ones at
higher precision. Lines of any other shape, such as one torn by an
interrupted write, one holding bytes that are not UTF-8, one with digits
other than 0-9 or one with a number too long for int(), are skipped on
load, and a path that cannot be read or appended to raises ValueError
naming it. A well-formed entry is checked against its polynomial once per
RootCache object, on the first get for that (polynomial, prime), without
forming p^k unless r has more than k bits: an r that is not a root or not
reduced mod p^k, or a wrong unit flag, raises ValueError. Later gets, and
gets after a put, are served from the verified roots held in memory, keyed
by the polynomial itself so that a hash collision cannot hand one
polynomial's root to another. Access within a process is expected to be
single-writer.
"""

from __future__ import annotations

import functools
import hashlib
import os
import re
from pathlib import Path

from .modroots import PadicRoot
from .polys import IntPoly

_LINE = re.compile(r"([0-9a-f]+) ([0-9]+) ([0-9]+) ([0-9]+) ([01])")
_APPEND = os.O_WRONLY | os.O_APPEND | os.O_CREAT


@functools.lru_cache(maxsize=64)
def poly_key(P: IntPoly) -> str:
    """Canonical hash of a polynomial's coefficient sequence."""
    payload = "v1:" + ",".join(str(c) for c in P.coeffs)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class RootCache:
    """Map (polynomial, prime) to a canonical PadicRoot, optionally on disk."""

    def __init__(self, path: str | os.PathLike | None = None):
        self.path = Path(path) if path is not None else None
        # (k, r, unit) of the latest entry per (poly_key, p), as in the file
        self._mem: dict[tuple[str, int], tuple[int, int, bool]] = {}
        # roots checked by get or stored by put, per polynomial, by prime;
        # a reader that finds its root here need not call get
        self.verified: dict[IntPoly, dict[int, PadicRoot]] = {}
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            # a byte that is not UTF-8 becomes U+FFFD, so its line is skipped
            text = self.path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            raise ValueError(f"cannot read cache {self.path}: {exc.strerror}")
        for line in text.splitlines():
            m = _LINE.fullmatch(line.strip())
            if m is None:
                continue
            key, p, k, r, unit = m.groups()
            try:
                self._mem[(key, int(p))] = (int(k), int(r), unit == "1")
            except ValueError:  # too long for int(); put never writes one
                continue

    def get(self, P: IntPoly, p: int) -> PadicRoot | None:
        roots = self.verified.setdefault(P, {})
        if p not in roots and (entry := self._mem.get((poly_key(P), p))):
            k, r, unit = entry
            root = PadicRoot.for_poly(P, p, k, r)
            if root.r != r or root.unit != unit:  # r must be reduced mod p^k
                raise ValueError("cache entry inconsistent with polynomial")
            roots[p] = root
        return roots.get(p)

    def put(self, P: IntPoly, p: int, root: PadicRoot) -> None:
        key = (poly_key(P), p)
        old = self._mem.get(key)
        if old is not None:
            old_k, old_r, _ = old
            if root.k <= old_k:
                return
            if root.r % p ** old_k != old_r:
                raise ValueError("refusing to replace cached residue class")
        self._mem[key] = (root.k, root.r, root.unit)
        self.verified.setdefault(P, {})[p] = root
        if self.path is not None:
            line = f"{key[0]} {p} {root.k} {root.r} {int(root.unit)}\n".encode()
            try:
                try:
                    fd = os.open(self.path, _APPEND, 0o666)
                except FileNotFoundError:  # the directory is made on demand
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    fd = os.open(self.path, _APPEND, 0o666)
                try:
                    written = os.write(fd, line)
                finally:
                    os.close(fd)
            except OSError as exc:
                raise ValueError(
                    f"cannot write cache {self.path}: {exc.strerror}")
            if written != len(line):
                raise ValueError(f"cannot write cache {self.path}: short write")
