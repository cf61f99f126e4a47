"""CPU time and peak memory of a process together with its descendants.

The program may start worker processes or threads of its own.  Their CPU
time decides whether a stretch may be scaled to reference speed (calib.py),
and their memory belongs in ``peak_rss_mb``.  Live descendants are found by
scanning ``/proc`` for parent links; children that were already waited for
are covered by ``RUSAGE_CHILDREN``.  Without ``/proc`` only the process
itself and its reaped children count.
"""

from __future__ import annotations

import os
import resource

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def descendants() -> dict[int, list[bytes]]:
    """Live descendants of this process: pid -> the /proc stat fields after the command name."""
    stats: dict[int, list[bytes]] = {}
    children: dict[int, list[int]] = {}
    try:
        pids = [int(p) for p in os.listdir("/proc") if p.isdigit()]
    except OSError:
        return {}
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as fh:
                raw = fh.read()
        except OSError:
            continue  # exited while scanning
        fields = raw[raw.rindex(b")") + 2:].split()
        stats[pid] = fields
        children.setdefault(int(fields[1]), []).append(pid)
    out, todo = {}, list(children.get(os.getpid(), ()))
    while todo:
        pid = todo.pop()
        out[pid] = stats[pid]
        todo.extend(children.get(pid, ()))
    return out


def cpu_s() -> float:
    """User plus system seconds of this process (all threads), its reaped children and its live descendants."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime
    for fields in descendants().values():
        # utime, stime, cutime, cstime in clock ticks
        total += sum(int(x) for x in fields[11:15]) / _CLK_TCK
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process, plus the largest reaped child's, plus each live descendant's (VmHWM).

    Peaks that did not coincide are added, so with live children this reads
    high; of several reaped children only the largest is known.
    """
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    for pid in descendants():
        try:
            with open(f"/proc/{pid}/status") as fh:
                kb += next((int(line.split()[1]) for line in fh if line.startswith("VmHWM:")), 0)
        except OSError:
            continue
    return kb / 1024.0
