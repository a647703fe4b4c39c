"""Calls run in forked child processes, their results sent back through pipes.

``Forked(fn, *args, label=...)`` forks.  The child runs ``fn(*args)``,
pickles its return value, or the exception it raised with its traceback
as text, onto a pipe and leaves through ``os._exit``: it never flushes the
parent's stdio buffers and never runs the parent's atexit handlers.
``result()`` reads the pipe, reaps the child and returns the value or
raises the exception again, caused by a ``ChildTraceback`` that names the
label and holds the child's traceback; ``reap()`` kills a child that is
still running and reaps it.  Only ``os``, ``pickle`` and ``signal`` are
imported up front, and ``traceback`` in a failing child: a process pool
costs about a megabyte of imports alone.  A forked child runs only this
package and numpy, and the command-line program starts no thread of its
own that could hold a lock across the fork; a library caller that forks
through this module must hold no thread either.

``map_forked`` is a serial loop over independent calls whose costliest
calls run in children, one per usable CPU but one.  ``cli`` maps the eps
cases of a Theorem-1 sweep through it, and the two jobs of the soliton
command (the rendered profiles in this process, the tail diagnostics in a
child); ``residual.sweep_report`` maps equal chunks of the snapshots of a
residual sweep.
"""

from __future__ import annotations

import os
import pickle
import signal

from .errors import ChildDied, ChildTraceback


def usable_cpus() -> int:
    """CPUs this process may run on; 1 where os.fork does not exist."""
    if not hasattr(os, "fork"):
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _exit_status(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"exit status {code}"
    try:
        return f"signal {signal.Signals(-code).name}"
    except ValueError:  # a signal with no name, e.g. SIGRTMIN+1 on Linux
        return f"signal {-code}"


def _run_child(fn, args, fd: int):
    """Run fn(*args) in the child, send (ok, value or exception, traceback) on fd and exit."""
    code = 1
    try:
        try:
            payload = (True, fn(*args), None)
        except Exception as exc:
            import traceback  # only a failing child needs it

            payload = (False, exc, traceback.format_exc())
        with open(fd, "wb") as fh:
            pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


class Forked:
    """fn(*args) running in a forked child; label names it in errors."""

    def __init__(self, fn, *args, label: str = "child"):
        self.label = label
        read, write = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # e.g. EAGAIN at a process limit: no child owns the pipe
            os.close(read)
            os.close(write)
            raise
        if pid == 0:
            os.close(read)
            _run_child(fn, args, write)
        os.close(write)
        self.pid: int | None = pid
        self._pipe = open(read, "rb")

    def result(self):
        """Wait for the child; its return value, or its exception raised again.

        The exception keeps its type and message; its cause is a
        ChildTraceback with the label and the child's traceback.

        Raises:
            ChildDied: the child ended by a signal or an exit of its own
                without sending a result.
        """
        data = self._pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        self._pipe.close()
        if not (os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0 and data):
            raise ChildDied(f"{self.label}: child ended by {_exit_status(status)} "
                            "without a result")
        ok, value, child_traceback = pickle.loads(data)
        if ok:
            return value
        raise value from ChildTraceback(f"{self.label}: raised in a forked child\n"
                                        f"{child_traceback.rstrip()}")

    def reap(self):
        """Kill the child if it has not been reaped yet, and reap it."""
        self._pipe.close()
        if self.pid is None:
            return
        pid, self.pid = self.pid, None
        # until it is reaped the pid stays the child's, exited or not
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def map_forked(fn, items, cost, label) -> tuple[list, Exception | None]:
    """fn(item) of each item as a serial loop gives them, some run in children.

    With c usable CPUs, each of the min(c, len(items)) - 1 items of highest
    cost(item) runs in a forked child labelled label(item), and this process
    runs the others in list order.  Returns the values of the items before
    the first that raised, and that item's exception (None if none raised);
    an empty list gives ([], None).  Every child is reaped before this
    returns or raises.
    """
    forks = min(usable_cpus(), len(items)) - 1
    costs = [cost(item) for item in items] if forks > 0 else []
    forked = sorted(range(len(costs)), key=lambda i: -costs[i])[:forks]
    children, own, values = {}, {}, []
    try:
        for i in sorted(forked):
            children[i] = Forked(fn, items[i], label=label(items[i]))
        for i, item in enumerate(items):
            if i not in children:
                try:
                    own[i] = fn(item)
                except Exception as exc:  # the items before it may still fail first
                    own[i] = exc
                    break
        for i in range(len(items)):
            if i not in children:
                if isinstance(own[i], Exception):
                    return values, own[i]
                values.append(own[i])
                continue
            try:
                values.append(children[i].result())
            except Exception as exc:
                return values, exc
    finally:
        for child in children.values():
            child.reap()
    return values, None
