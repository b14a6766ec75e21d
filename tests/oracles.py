"""Independent reference implementations used to check the real ones.

Each oracle deliberately takes a different route than the production code
(pathlib instead of scandir, posixpath.normpath instead of the hand-rolled
stack, fixed-point iteration instead of a worklist, numpy matrix powers
instead of BFS) so agreement actually means something.
"""

from __future__ import annotations

import os
import pathlib
import posixpath
import shutil
import tarfile

import numpy as np


def walk_inventory(root) -> dict[str, tuple[str, int, str | None]]:
    """Directory inventory via pathlib: path -> (kind, size, link_target)."""
    root = pathlib.Path(root)
    out: dict[str, tuple[str, int, str | None]] = {"/": ("directory", 0, None)}
    for p in sorted(root.rglob("*")):
        rel = "/" + p.relative_to(root).as_posix()
        if p.is_symlink():
            out[rel] = ("symlink", 0, os.readlink(p))
        elif p.is_dir():
            out[rel] = ("directory", 0, None)
        elif p.is_file():
            out[rel] = ("regular", p.lstat().st_size, None)
        else:
            out[rel] = ("other", 0, None)
    return out


def file_bytes(root) -> dict[str, bytes]:
    """Bytes of every regular file under a directory, keyed like walk_inventory."""
    root = pathlib.Path(root)
    return {"/" + p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and not p.is_symlink()}


def fileset_inventory(fs) -> dict[str, tuple[str, int, str | None]]:
    return {p: (e.kind, e.size, e.link_target) for p, e in fs.entries.items()}


def normalize_oracle(cwd: str, raw: str) -> str:
    """Lexical normalization by way of posixpath.normpath."""
    joined = raw if raw.startswith("/") else posixpath.join(cwd, raw)
    norm = posixpath.normpath(joined)
    # normpath hands back '//x' for POSIX reasons and may leave leading '..'
    while norm.startswith("//"):
        norm = norm[1:]
    parts = [p for p in norm.split("/") if p not in ("", ".", "..")]
    return "/" + "/".join(parts)


def naive_retained_closure(fs, access_paths, keep_paths=()) -> set[str]:
    """Fixed-point iteration over the two closure rules."""
    from bloatlens.trace import normalize_path

    retained = {"/"}
    retained.update(p for p in access_paths if p in fs.entries)
    retained.update(p for p in keep_paths if p in fs.entries)
    while True:
        new = set(retained)
        for path in retained:
            cur = path
            while cur != "/":
                cur = cur.rsplit("/", 1)[0] or "/"
                if cur in fs.entries:
                    new.add(cur)
            entry = fs.entries[path]
            if entry.kind == "symlink":
                parent = path.rsplit("/", 1)[0] or "/"
                target = normalize_path(parent, entry.link_target)
                if target in fs.entries:
                    new.add(target)
        if new == retained:
            return retained
        retained = new


def sequential_extract_union(layer_paths, scratch) -> dict[str, tuple[str, int, str | None]]:
    """Reference layered-union semantics by actually extracting to disk."""
    scratch = os.fspath(scratch)
    os.makedirs(scratch, exist_ok=True)
    for layer in layer_paths:
        with tarfile.open(layer, "r:*") as tf:
            members = tf.getmembers()
        whiteout_members = []
        add_members = []
        for m in members:
            base = os.path.basename(m.name.rstrip("/"))
            if base == ".wh..wh..opq" or base.startswith(".wh."):
                whiteout_members.append(m)
            else:
                add_members.append(m)
        for m in whiteout_members:
            base = os.path.basename(m.name.rstrip("/"))
            rel_dir = os.path.dirname(m.name.lstrip("./").strip("/"))
            if base == ".wh..wh..opq":
                target_dir = os.path.join(scratch, rel_dir)
                if os.path.isdir(target_dir):
                    for child in os.listdir(target_dir):
                        full = os.path.join(target_dir, child)
                        if os.path.isdir(full) and not os.path.islink(full):
                            shutil.rmtree(full)
                        else:
                            os.unlink(full)
            else:
                target = os.path.join(scratch, rel_dir, base[len(".wh."):])
                if os.path.isdir(target) and not os.path.islink(target):
                    shutil.rmtree(target)
                elif os.path.lexists(target):
                    os.unlink(target)
        with tarfile.open(layer, "r:*") as tf:
            for m in add_members:
                target = os.path.join(scratch, m.name.lstrip("./").strip("/"))
                if os.path.lexists(target) and not os.path.isdir(target):
                    os.unlink(target)
                elif os.path.isdir(target) and not m.isdir():
                    shutil.rmtree(target)
                tf.extract(m, scratch)
    return walk_inventory(scratch)


def reachability_oracle(keys: list[str], edges: set[tuple[str, str]]) -> dict[str, set[str]]:
    """Transitive successors per node via boolean matrix squaring."""
    index = {k: i for i, k in enumerate(keys)}
    n = len(keys)
    adj = np.zeros((n, n), dtype=bool)
    for a, b in edges:
        adj[index[a], index[b]] = True
    closure = adj.copy()
    while True:
        step = closure | (closure @ closure)
        if (step == closure).all():
            break
        closure = step
    return {k: {keys[j] for j in range(n) if closure[index[k], j]} - {k} for k in keys}


def vuln_survival_oracle(match, bloat_paths: set[str], files_by_pkg: dict) -> bool:
    """Standalone removed/retained decision for one match (True = removed)."""
    if match.locations:
        return all(loc in bloat_paths for loc in match.locations)
    files = files_by_pkg.get((match.pkg_name, match.pkg_version))
    if not files:
        return False
    return all(f in bloat_paths for f in files)


def tarfile_contents(tar_path):
    """What tarfile reads from a tar whose member paths are unique:
    (path -> (kind, size, link_target), path -> mode, path -> bytes of each
    regular file). Hardlinks read as regular files with their target's
    bytes; implied parent directories are added with mode None."""
    inventory, modes, data = {"/": ("directory", 0, None)}, {"/": None}, {}
    with tarfile.open(tar_path, "r:*") as tf:
        for m in tf.getmembers():
            rel = posixpath.normpath(m.name).lstrip("/")
            if rel == ".":
                continue
            path = "/" + rel
            modes[path] = m.mode
            if m.isdir():
                inventory[path] = ("directory", 0, None)
            elif m.issym():
                inventory[path] = ("symlink", 0, m.linkname)
            elif m.isfile() or m.islnk():
                with tf.extractfile(m) as f:
                    data[path] = f.read()
                inventory[path] = ("regular", len(data[path]), None)
            else:
                inventory[path] = ("other", 0, None)
    for path in list(inventory):
        while path != "/":
            path = posixpath.dirname(path)
            modes.setdefault(path, None)
            inventory.setdefault(path, ("directory", 0, None))
    return inventory, modes, data
