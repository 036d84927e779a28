"""Pure path-string manipulation for the simulated file systems.

Only absolute or cwd-relative POSIX-style paths exist in the simulation;
these helpers normalize them without touching the host file system.
"""

from __future__ import annotations

from typing import List


def split_path(path: str) -> List[str]:
    """Split into components, dropping empty ones (``//`` collapses)."""
    return [part for part in path.split("/") if part]


def normalize(path: str, cwd: str = "/") -> str:
    """Produce a canonical absolute path, resolving ``.`` and ``..``
    lexically (symlink-aware resolution happens in the VFS)."""
    if path[:1] == "/" and "//" not in path and "/." not in path \
            and path[-1] != "/":
        # No empty, "." or ".." component: already canonical.
        return path
    if not path.startswith("/"):
        path = cwd.rstrip("/") + "/" + path
    stack: List[str] = []
    for part in split_path(path):
        if part == ".":
            continue
        if part == "..":
            if stack:
                stack.pop()
            continue
        stack.append(part)
    return "/" + "/".join(stack)


def join(*parts: str) -> str:
    """Join path fragments with single slashes; later absolute parts win."""
    result = ""
    for part in parts:
        if not part:
            continue
        if part.startswith("/") or not result:
            result = part
        else:
            result = result.rstrip("/") + "/" + part
    return result or "/"


def dirname(path: str) -> str:
    """Parent directory of *path* (lexical)."""
    parts = split_path(path)
    if not parts:
        return "/"
    return "/" + "/".join(parts[:-1])


def basename(path: str) -> str:
    """Final component of *path* (lexical)."""
    parts = split_path(path)
    return parts[-1] if parts else ""
