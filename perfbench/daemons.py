"""Building the program from source and running its daemons.

Every daemon runs in its own process group, so a shard the router spawned
is stopped together with the router even when the router cannot stop it.
Paths are relative to the checkout root (the working directory): Unix
socket paths are limited to ~100 bytes, and the checkout may sit deep.
"""

import concurrent.futures
import os
import shutil
import signal
import subprocess
import time

import wire

BUILD_DIR = ".bench_build"
BIN = os.path.join(BUILD_DIR, "default", "bin")
EXES = ("rip_serviced", "rip_routerd", "rip_cli")


def build():
    """Build the daemons and the solve CLI with dune; raise on failure."""
    if not os.path.isfile("dune-project"):
        raise RuntimeError("no dune-project here: run from the repository root")
    dune = shutil.which("dune")
    command = [dune] if dune else ["opam", "exec", "--", "dune"]
    command += ["build", "--root", ".", "--build-dir", BUILD_DIR, "--cache=disabled"]
    command += ["./bin/%s.exe" % exe for exe in EXES]
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if done.returncode != 0:
        raise RuntimeError("build failed:\n" + done.stdout.decode(errors="replace"))


def exe(name):
    return os.path.join(BIN, name + ".exe")


def tau_min_ps(paths):
    """The program's minimum achievable delay of each net file, in ps."""

    def one(path):
        done = subprocess.run([exe("rip_cli"), "tau-min", path], stdout=subprocess.PIPE)
        text = done.stdout.decode()
        if done.returncode != 0:
            raise RuntimeError("rip_cli tau-min %s failed: %s" % (path, text))
        return float(text.split("=")[1].split()[0])

    with concurrent.futures.ThreadPoolExecutor(2) as pool:
        return list(pool.map(one, paths))


class Daemon:
    """A rip_routerd process and the rip_serviced shards it spawns.

    [start] returns once the daemon answers PING; [setup_seconds] is the
    time from spawning it to that first PONG."""

    def __init__(self, run_dir, shards, traced):
        self.run_dir = run_dir
        self.shards = shards
        self.socket = os.path.join(run_dir, "d.sock")
        self.trace_dir = os.path.join(run_dir, "traces") + "/"
        argv = [exe("rip_routerd"), "--socket", self.socket]
        argv += ["--shards", str(shards), "--shard-dir", run_dir, "--shard-jobs", "1"]
        if traced:
            argv += ["--trace-out", self.trace_dir]
            argv += ["--shard-arg=--trace-out", "--shard-arg=" + self.trace_dir]
        self.argv = argv
        self.proc = None
        self.setup_seconds = None

    def shard_sockets(self):
        """Sockets of the spawned shards."""
        return [os.path.join(self.run_dir, "shard-%d.sock" % i) for i in range(self.shards)]

    def start(self, timeout=60.0):
        log = open(os.path.join(self.run_dir, "daemon.log"), "ab")
        began = time.monotonic()
        try:
            self.proc = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT, start_new_session=True
            )
        finally:
            log.close()
        while True:
            try:
                conn = wire.Conn(self.socket, timeout=5.0)
                try:
                    if conn.request(b"PING\n") == ["PONG"]:
                        break
                finally:
                    conn.close()
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError("daemon exited with %d at start" % self.proc.returncode)
            if time.monotonic() - began > timeout:
                self.kill()
                raise RuntimeError("daemon not ready after %.0f s" % timeout)
            time.sleep(0.0002)
        self.setup_seconds = time.monotonic() - began

    def stop(self, timeout=30.0):
        """Graceful SIGTERM (traces are dumped then), SIGKILL past [timeout]."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self):
        """SIGKILL the whole process group and wait until it is empty."""
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        for _ in range(5000):
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.002)
        self.proc = None
