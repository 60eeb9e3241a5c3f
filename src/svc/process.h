// ChildProcess: the minimal POSIX process handle the supervisor runs on.
//
// fork/execvp to spawn, waitpid(WNOHANG) to poll, kill(2) to terminate —
// nothing more. The supervisor never talks to its workers through pipes or
// shared memory: the per-worker journal files and obs::StatusWriter
// heartbeat snapshots are the only coupling, exactly as in the multi-
// process sharded search this subsystem productionizes.
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

/// One spawned child. Movable, not copyable; the destructor does NOT kill
/// or reap a still-running child (the supervisor owns that policy — a
/// dropped handle simply leaks the child to init, which only a supervisor
/// bug can cause and a kill-leak beats a surprise SIGKILL).
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(ChildProcess&& other) noexcept;
  ChildProcess& operator=(ChildProcess&& other) noexcept;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ~ChildProcess() = default;

  /// fork + execvp. `argv[0]` is the binary (PATH-resolved); throws
  /// std::invalid_argument on empty argv and std::runtime_error when fork
  /// fails. An exec failure inside the child surfaces as exit code 127 on
  /// the next poll — indistinguishable from any other startup crash, which
  /// is exactly how the supervisor treats it.
  [[nodiscard]] static ChildProcess spawn(
      const std::vector<std::string>& argv);

  [[nodiscard]] pid_t pid() const { return pid_; }
  [[nodiscard]] bool valid() const { return pid_ > 0; }

  /// Non-blocking waitpid. Once terminal, the status is cached and further
  /// polls return it (the child is reaped exactly once).
  ExitStatus poll();

  /// Blocking waitpid (returns immediately when already reaped).
  ExitStatus wait();

  /// Sends `signum` (default SIGKILL). No-op once the child is reaped.
  void terminate(int signum);

 private:
  [[nodiscard]] ExitStatus wait_impl(bool block);

  pid_t pid_ = -1;
  ExitStatus last_{};
  bool reaped_ = false;
};

}  // namespace nada::svc
