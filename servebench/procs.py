"""Process-tree accounting from ``/proc``: CPU seconds and peak RSS.

The server under test is a tree: the ``repro serve`` process, its
multiprocessing pool workers, and in shard mode the shard processes and
their pools.  Everything here reads ``/proc`` directly so the benchmark
needs nothing beyond the standard library.
"""

from __future__ import annotations

import os

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            data = fh.read()
    except OSError:
        return None
    # The command name (field 2) may contain spaces; split after its ')'.
    return data[data.rindex(")") + 2:].split()


def descendants(root: int) -> list[int]:
    """``root`` and every live process below it."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


def cpu_seconds(pids: list[int]) -> dict[int, float]:
    """User + system CPU seconds per live pid, reaped children included.

    A pool worker that exits inside the window (a respawn, say) may never
    show up in a tree listing, but its CPU lands in the parent's
    ``cutime``/``cstime`` once reaped.
    """
    out = {}
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            out[pid] = sum(int(f) for f in fields[11:15]) / _CLK_TCK
    return out


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def steal_seconds() -> float:
    """Machine-wide CPU time stolen by the hypervisor so far (``/proc/stat``).

    Recorded around each window: other tenants of the host show up here,
    and a run that lost much CPU to them is slow for reasons outside the
    program.
    """
    with open("/proc/stat") as fh:
        fields = fh.readline().split()
    return int(fields[8]) / _CLK_TCK if len(fields) > 8 else 0.0
