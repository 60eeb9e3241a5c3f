// ChildProcess: the minimal POSIX process handle the supervisor runs on.
//
// fork/execvp to spawn, a pidfd (pidfd_open(2), Linux >= 5.3) that turns
// readable when the child exits, waitpid(WNOHANG) to reap, kill(2) to
// terminate — nothing more. The supervisor waits in poll(2) on its
// workers' pidfds, so it wakes the moment one exits. It never talks to its
// workers through pipes or shared memory: the per-worker journal files and
// obs::StatusWriter heartbeat snapshots are the only coupling, exactly as
// in the multi-process sharded search this subsystem productionizes.
#pragma once

#include <string>
#include <vector>

#include <sys/types.h>

namespace nada::svc {

/// Terminal (or not-yet-terminal) state of a spawned child.
struct ExitStatus {
  enum class Kind { kRunning, kExited, kSignaled };
  Kind kind = Kind::kRunning;
  int exit_code = 0;  ///< valid when kExited
  int signal = 0;     ///< valid when kSignaled

  [[nodiscard]] bool running() const { return kind == Kind::kRunning; }
  /// Clean exit (kExited with code 0).
  [[nodiscard]] bool ok() const {
    return kind == Kind::kExited && exit_code == 0;
  }
  /// "exit 3" / "signal 9" / "running", for logs and error messages.
  [[nodiscard]] std::string describe() const;
};

/// One spawned child. Movable (the pidfd moves with the handle), not
/// copyable; the destructor closes the pidfd but does NOT kill or reap a
/// still-running child (the supervisor owns that policy — a dropped handle
/// simply leaks the child to init, which only a supervisor bug can cause
/// and a kill-leak beats a surprise SIGKILL).
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess();

  /// fork + execvp, then a close-on-exec pidfd for the child. `argv[0]` is
  /// the binary (PATH-resolved); throws std::invalid_argument on empty argv
  /// and std::runtime_error when fork fails. A failed pidfd_open leaves
  /// pidfd() at -1: the child is then only noticed by polling. An exec
  /// failure inside the child surfaces as exit code 127 on the next poll —
  /// indistinguishable from any other startup crash, which is exactly how
  /// the supervisor treats it.
  [[nodiscard]] static ChildProcess spawn(
      const std::vector<std::string>& argv);

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool valid() const { return pid_ > 0; }
  /// Readable (POLLIN) once the child has exited; -1 when there is none
  /// (no child, pidfd_open failed, or the child is reaped: reaping closes
  /// it).
  [[nodiscard]] int pidfd() const { return pidfd_; }

  /// Non-blocking waitpid. Once terminal, the status is cached and further
  /// polls return it (the child is reaped exactly once).
  ExitStatus poll();

  /// Blocking waitpid (returns immediately when already reaped).
  ExitStatus wait();

  /// Sends `signum` (default SIGKILL). No-op once the child is reaped.
  void terminate(int signum);

 private:
  [[nodiscard]] ExitStatus wait_impl(bool block);
  void close_pidfd();

  pid_t pid_ = -1;
  int pidfd_ = -1;
  ExitStatus last_{};
  bool reaped_ = false;
};

}  // namespace nada::svc
