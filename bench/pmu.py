"""User-space instructions retired, read from the CPU's counters.

The benchmark's steady measure of work. On a shared host the wall time
of the same op moves with the host's load (see ``README.md``, "Why
instructions"); the number of instructions the op retires does not.

A :class:`Counter` counts one thread, through ``perf_event_open(2)``
with ``exclude_kernel`` (user space only, so it needs no privilege
beyond ``perf_event_paranoid <= 2``). With ``inherit`` it also counts
every thread that thread starts afterwards. A :class:`ProcessCounter`
sums one inheriting counter per thread a process has when it is
opened, so threads the process starts later count too.

Counters run from the moment they open; callers take differences of
:meth:`read`.
"""

from __future__ import annotations

import ctypes
import os
import platform
import struct

#: ``perf_event_open`` syscall numbers.
SYSCALLS = {"x86_64": 298, "aarch64": 241}
PERF_TYPE_HARDWARE = 0
PERF_COUNT_HW_INSTRUCTIONS = 1
#: ``read_format``: TOTAL_TIME_ENABLED | TOTAL_TIME_RUNNING.
READ_FORMAT = 1 | 2
#: ``flags`` bits: inherit, exclude_kernel, exclude_hv.
INHERIT, EXCLUDE_KERNEL, EXCLUDE_HV = 1 << 1, 1 << 5, 1 << 6
PERF_FLAG_FD_CLOEXEC = 1 << 3


class CounterError(RuntimeError):
    """The instruction counter cannot be opened or did not count."""


class _Attr(ctypes.Structure):
    """``struct perf_event_attr`` up to ``bp_addr`` (PERF_ATTR_SIZE_VER0)."""

    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_period", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("bp_addr", ctypes.c_uint64),
    ]


_libc = ctypes.CDLL(None, use_errno=True)
# syscall(2) is variadic: its arguments are passed as explicit C types.
_libc.syscall.restype = ctypes.c_long


class Counter:
    """Instructions retired in user space by one thread (``tid`` 0: this one)."""

    def __init__(self, tid: int = 0, inherit: bool = False):
        """Open and start the counter; raises :class:`CounterError`."""
        number = SYSCALLS.get(platform.machine())
        if number is None:
            raise CounterError(f"no perf_event_open on {platform.machine()}")
        attr = _Attr(
            type=PERF_TYPE_HARDWARE,
            size=ctypes.sizeof(_Attr),
            config=PERF_COUNT_HW_INSTRUCTIONS,
            read_format=READ_FORMAT,
            flags=EXCLUDE_KERNEL | EXCLUDE_HV | (INHERIT if inherit else 0),
        )
        fd = _libc.syscall(
            ctypes.c_long(number), ctypes.byref(attr), ctypes.c_int(tid),
            ctypes.c_int(-1), ctypes.c_int(-1),
            ctypes.c_ulong(PERF_FLAG_FD_CLOEXEC),
        )
        if fd < 0:
            err = ctypes.get_errno()
            raise CounterError(
                f"perf_event_open(instructions, tid={tid}): {os.strerror(err)}; "
                "the benchmark needs the CPU's instruction counter "
                "(kernel.perf_event_paranoid <= 2 and a PMU the kernel exposes)"
            )
        self.fd = fd

    def read(self) -> int:
        """Instructions counted so far; raises if the counter never ran."""
        count, enabled, running = struct.unpack("QQQ", os.read(self.fd, 24))
        if running < enabled:
            # Another user of the PMU pushed this counter off for part of
            # the time; an extrapolated count is not a measurement.
            raise CounterError(
                f"instruction counter ran {running} of {enabled} ns"
            )
        return count

    def close(self) -> None:
        """Release the counter."""
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


class ProcessCounter:
    """Instructions of every thread of process ``pid``, now and later."""

    def __init__(self, pid: int):
        """Open an inheriting counter on each of the process's threads."""
        self.counters: list[Counter] = []
        try:
            for tid in sorted(os.listdir(f"/proc/{pid}/task"), key=int):
                self.counters.append(Counter(int(tid), inherit=True))
        except BaseException:
            self.close()
            raise

    def read(self) -> int:
        """Instructions counted so far, over all threads."""
        return sum(c.read() for c in self.counters)

    def close(self) -> None:
        """Release every counter."""
        for counter in self.counters:
            counter.close()
        self.counters = []
