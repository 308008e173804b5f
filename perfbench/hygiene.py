"""Run hygiene: a private scratch directory inside the checkout, and the
leak checks every run ends with (worker processes, shared-memory
segments, temporary data directories).  A run that leaks counts as
failed."""

from __future__ import annotations

import multiprocessing
import os
import shutil
import tempfile
from typing import List

RUN_ROOT = ".perfbench_run"
SHM_DIR = "/dev/shm"


class RunDir:
    """``<checkout>/.perfbench_run/<pid>/``; temporary files of this
    process and its children are redirected into its ``tmp``."""

    def __init__(self, root: str):
        self.base = os.path.join(root, RUN_ROOT)
        self.path = os.path.join(self.base, str(os.getpid()))
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        #: Entries of the run directory the workload made itself.
        self._own = set()
        self.tmp = self.sub("tmp")
        os.environ["TMPDIR"] = self.tmp
        tempfile.tempdir = self.tmp
        self._count = 0

    def sub(self, name: str) -> str:
        path = os.path.join(self.path, name)
        os.makedirs(path, exist_ok=True)
        self._own.add(name)
        return path

    def fresh(self, prefix: str) -> str:
        """A new, empty directory (not created: stores create their own);
        ``<it>.<suffix>`` files beside it are the workload's too."""
        self._count += 1
        name = f"{prefix}-{self._count:03d}"
        self._own.add(name)
        return os.path.join(self.path, name)

    def leftovers(self) -> List[str]:
        """Problems for temporary files or directories still under
        ``tmp`` and for run-directory entries the workload did not make
        (a data or temporary directory the program leaked)."""
        problems = []
        for dirpath, dirnames, filenames in os.walk(self.tmp):
            for name in sorted(dirnames + filenames):
                path = os.path.relpath(os.path.join(dirpath, name), self.path)
                problems.append(f"temporary {path} left behind")
        for name in sorted(os.listdir(self.path)):
            if name not in self._own and name.split(".", 1)[0] not in self._own:
                problems.append(f"{name} left behind in the run directory")
        return problems

    def remove(self) -> List[str]:
        """Report what was left behind, then delete the run directory."""
        problems = self.leftovers()
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(self.base)
        except OSError:
            pass  # another run's directory, or already gone
        if os.path.exists(self.path):
            problems.append(f"run directory {self.path} could not be removed")
        return problems


class ShmWatch:
    """Shared-memory segments (entries of ``/dev/shm``) that appeared
    during the run and are still there at its end, whichever process --
    this one, a serving process or a pool worker -- created them."""

    def __init__(self):
        self.before = self._entries()

    @staticmethod
    def _entries() -> set:
        try:
            return set(os.listdir(SHM_DIR))
        except OSError:
            return set()

    def close(self) -> List[str]:
        return [f"shared-memory segment {name} left behind"
                for name in sorted(self._entries() - self.before)]


def kill_survivors(procs) -> None:
    """Kill and reap started processes that are still running (after a
    failed run, or after the leak check has recorded them)."""
    for proc in procs:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


def leaked_children(procs) -> List[str]:
    """Problems for started processes still running, plus any child of
    this process nobody waited for."""
    problems = [f"worker pid {p.pid} still running"
                for p in procs if p is not None and p.poll() is None]
    problems += [f"pool process {c.pid} still running"
                 for c in multiprocessing.active_children()]
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid == 0:
            problems.append("a child process is still running")
            break
        problems.append(f"child pid {pid} exited but was never reaped")
    return problems
