"""Process supervision for the streaming service: crash → resume, unattended.

:class:`ServiceSupervisor` wraps ``spex serve --listen`` in a child
process and keeps it alive: when the server dies — SIGKILL, OOM, a bug —
the supervisor relaunches it with ``--resume`` under the same seeded
:class:`~repro.core.clock.ExponentialBackoff` schedule the
in-process supervisor and the shard coordinator use, so restart storms
are damped and schedules are reproducible.  Combined with the
write-ahead log (:mod:`repro.service.wal`) and the service-native resume
path of :class:`~repro.service.server.SpexService`, the observable
contract is: a SIGKILL at *any* event offset, followed by the
supervised restart and the clients' session resumes, yields exactly the
match streams of one uninterrupted pass.

The fault domains nest strictly::

    supervisor process          (this module: restart policy only)
      └── server process        (spex serve --listen: sessions, pump)
            └── write-ahead log (the only state a crash may not erase)

The supervisor holds no stream state at all — everything it needs to
restore a server is on disk, which is what makes the SIGKILL test
honest: nothing survives in memory between generations.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from ..core.clock import ExponentialBackoff
from ..errors import ReproError

#: The stdout line the server prints once its listener is bound.
_BANNER = "-- listening on "


class ServiceSupervisorError(ReproError):
    """The supervised server could not be started (or never banners)."""


@dataclass
class ServiceSupervisorConfig:
    """Restart policy for a supervised ``spex serve --listen`` process.

    Attributes:
        checkpoint_path / wal_path: the durable state the server writes
            and every restart resumes from.
        host / port: bind address handed to ``--listen`` (port 0 binds
            an ephemeral port on *every* generation; read the current
            one from :attr:`ServiceSupervisor.address`).
        max_restarts: give up after this many restarts (the crash is
            systemic, not transient).
        backoff: seeded restart-delay schedule.
        startup_timeout: seconds a generation gets to print its
            ``-- listening on`` banner before the watchdog declares the
            start stalled, kills it, and counts a restart.
        extra_args: appended to the server command line (e.g.
            ``["--checkpoint-every-docs", "4"]``).
        seed: seeds :attr:`backoff` when one is not given.
    """

    checkpoint_path: str
    wal_path: str
    host: str = "127.0.0.1"
    port: int = 0
    max_restarts: int = 5
    backoff: ExponentialBackoff | None = None
    startup_timeout: float = 30.0
    extra_args: list[str] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.startup_timeout <= 0:
            raise ValueError("startup_timeout must be positive")
        if self.backoff is None:
            self.backoff = ExponentialBackoff(
                initial=0.05, maximum=2.0, seed=self.seed
            )


class ServiceSupervisor:
    """Keep one ``spex serve --listen`` alive across crashes.

    Usage::

        sup = ServiceSupervisor(ServiceSupervisorConfig(
            checkpoint_path="state.ckpt", wal_path="state.wal",
        ))
        host, port = sup.start()     # first generation (fresh, no --resume)
        ...                          # clients connect, producer streams
        sup.kill()                   # chaos: SIGKILL the server
        host, port = sup.wait_for_server()   # restarted with --resume
        ...
        sup.stop()                   # graceful SIGTERM drain, then join

    The monitor thread notices exits on its own — :meth:`kill` is just
    the test hook; a real crash takes the same path.
    """

    def __init__(self, config: ServiceSupervisorConfig) -> None:
        self.config = config
        self.restarts = 0
        self.generations = 0
        self.address: tuple[str, int] | None = None
        self._process: subprocess.Popen[str] | None = None
        self._spawned_at = 0.0
        self._monitor: threading.Thread | None = None
        self._stopping = threading.Event()
        self._ready = threading.Event()
        self._failed: str | None = None
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # lifecycle

    def start(self) -> tuple[str, int]:
        """Launch the first generation and block until it listens."""
        if self._process is not None:
            raise ServiceSupervisorError("supervisor already started")
        self._spawn(resume=False)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="spex-service-supervisor", daemon=True
        )
        self._monitor.start()
        return self.wait_for_server()

    def wait_for_server(self, timeout: float | None = None) -> tuple[str, int]:
        """Block until the current generation is accepting connections."""
        budget = (
            timeout
            if timeout is not None
            else self.config.startup_timeout * (self.config.max_restarts + 1)
        )
        if not self._ready.wait(budget):
            raise ServiceSupervisorError(
                f"server not listening within {budget:.1f}s"
            )
        with self._lock:
            if self._failed is not None:
                raise ServiceSupervisorError(self._failed)
            assert self.address is not None
            return self.address

    def kill(self) -> None:
        """SIGKILL the current server generation (the chaos hook)."""
        with self._lock:
            process = self._process
            self._ready.clear()
        if process is not None and process.poll() is None:
            process.kill()

    def stop(self) -> int:
        """Gracefully drain the server (SIGTERM) and stop supervising.

        Returns the final generation's exit code (0 = clean drain).
        """
        self._stopping.set()
        with self._lock:
            process = self._process
        returncode = 0
        if process is not None:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
            try:
                returncode = process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:  # pragma: no cover - wedged
                process.kill()
                returncode = process.wait()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
        return returncode

    @property
    def alive(self) -> bool:
        process = self._process
        return process is not None and process.poll() is None

    # ------------------------------------------------------------------
    # internals

    def _command(self, resume: bool) -> list[str]:
        config = self.config
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--listen",
            f"{config.host}:{config.port}",
            "--checkpoint-file",
            config.checkpoint_path,
            "--wal-file",
            config.wal_path,
        ]
        if resume:
            command.append("--resume")
        command.extend(config.extra_args)
        return command

    def _spawn(self, resume: bool) -> None:
        env = dict(os.environ)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        with self._lock:
            self._process = subprocess.Popen(
                self._command(resume),
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                env=env,
            )
            self._spawned_at = time.monotonic()
            self.generations += 1
        banner_thread = threading.Thread(
            target=self._await_banner, args=(self._process,), daemon=True
        )
        banner_thread.start()

    def _await_banner(self, process: "subprocess.Popen[str]") -> None:
        """Parse ``-- listening on HOST:PORT`` off the child's stdout."""
        stdout = process.stdout
        if stdout is None:  # pragma: no cover - PIPE always set
            return
        deadline = time.monotonic() + self.config.startup_timeout
        for line in stdout:
            if line.startswith(_BANNER):
                host, _, port_text = line[len(_BANNER):].strip().rpartition(":")
                try:
                    port = int(port_text)
                except ValueError:  # pragma: no cover - malformed banner
                    break
                with self._lock:
                    if self._process is process:
                        self.address = (host, port)
                        self._ready.set()
                # keep draining stdout so the child never blocks on a
                # full pipe; we are off the hot path here
                for _ in stdout:
                    pass
                return
            if time.monotonic() > deadline:
                break
        # EOF (or stall) without a banner: the monitor loop sees the
        # exit; a stalled-but-alive child is killed so it does.
        if process.poll() is None and time.monotonic() > deadline:
            process.kill()

    def _monitor_loop(self) -> None:
        """Watch the child; relaunch with ``--resume`` until told to stop."""
        assert self.config.backoff is not None
        while not self._stopping.is_set():
            with self._lock:
                process = self._process
                spawned_at = self._spawned_at
            if process is None:  # pragma: no cover - start() precedes
                return
            returncode = process.poll()
            if returncode is None:
                # Stall watchdog: a generation that never banners within
                # its startup budget is killed here and counted as a
                # crash on the next poll.  The banner thread cannot do
                # this alone — it blocks on the stdout read, so its own
                # deadline check only runs when a line actually arrives,
                # never for a child that hangs silently before printing.
                if (
                    not self._ready.is_set()
                    and time.monotonic() - spawned_at
                    > self.config.startup_timeout
                ):
                    process.kill()
                self._stopping.wait(0.05)
                continue
            if self._stopping.is_set():
                return
            self._ready.clear()
            if self.restarts >= self.config.max_restarts:
                with self._lock:
                    self._failed = (
                        f"server exited with {returncode} and the restart "
                        f"budget of {self.config.max_restarts} is spent"
                    )
                    self._ready.set()  # release any wait_for_server
                return
            self.restarts += 1
            delay = self.config.backoff.delay(self.restarts)
            if self._stopping.wait(delay):
                return
            self._spawn(resume=True)
