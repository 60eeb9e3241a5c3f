#include "svc/process.h"

#include <signal.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <stdexcept>
#include <utility>

namespace nada::svc {

std::string ExitStatus::describe() const {
  switch (kind) {
    case Kind::kRunning: return "running";
    case Kind::kExited: return "exit " + std::to_string(exit_code);
    case Kind::kSignaled: return "signal " + std::to_string(signal);
  }
  return "unknown";
}

ChildProcess::ChildProcess(ChildProcess&& other) noexcept
    : pid_(std::exchange(other.pid_, -1)),
      pidfd_(std::exchange(other.pidfd_, -1)),
      last_(other.last_),
      reaped_(std::exchange(other.reaped_, false)) {}

ChildProcess& ChildProcess::operator=(ChildProcess&& other) noexcept {
  if (this != &other) {
    close_pidfd();
    pid_ = std::exchange(other.pid_, -1);
    pidfd_ = std::exchange(other.pidfd_, -1);
    last_ = other.last_;
    reaped_ = std::exchange(other.reaped_, false);
  }
  return *this;
}

ChildProcess::~ChildProcess() { close_pidfd(); }

void ChildProcess::close_pidfd() {
  if (pidfd_ >= 0) ::close(pidfd_);
  pidfd_ = -1;
}

ChildProcess ChildProcess::spawn(const std::vector<std::string>& argv) {
  if (argv.empty()) {
    throw std::invalid_argument("ChildProcess::spawn: empty argv");
  }
  std::vector<char*> raw;
  raw.reserve(argv.size() + 1);
  for (const auto& arg : argv) raw.push_back(const_cast<char*>(arg.c_str()));
  raw.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("ChildProcess::spawn: fork failed for " +
                             argv[0]);
  }
  if (pid == 0) {
    ::execvp(raw[0], raw.data());
    // exec failed (missing binary, permissions). _exit, never return into
    // the parent's state: flushing its stdio or running its atexit hooks
    // from the forked child would corrupt both.
    ::_exit(127);
  }
  ChildProcess child;
  child.pid_ = pid;
  // The child cannot be reaped before this (only its handle reaps it), so
  // the pidfd names it even if it has already exited. pidfd_open's
  // descriptors are always close-on-exec.
  child.pidfd_ = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  return child;
}

ExitStatus ChildProcess::wait_impl(bool block) {
  if (reaped_ || !valid()) return last_;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, block ? 0 : WNOHANG);
  if (r == 0) return ExitStatus{};  // still running
  if (r < 0) {
    // ECHILD or similar: nothing to reap; report the child as crashed so
    // the supervisor's restart path handles a state we cannot explain.
    last_ = ExitStatus{ExitStatus::Kind::kSignaled, 0, SIGKILL};
    reaped_ = true;
    close_pidfd();
    return last_;
  }
  if (WIFEXITED(status)) {
    last_ = ExitStatus{ExitStatus::Kind::kExited, WEXITSTATUS(status), 0};
    reaped_ = true;
  } else if (WIFSIGNALED(status)) {
    last_ = ExitStatus{ExitStatus::Kind::kSignaled, 0, WTERMSIG(status)};
    reaped_ = true;
  }
  if (reaped_) close_pidfd();
  return reaped_ ? last_ : ExitStatus{};
}

ExitStatus ChildProcess::poll() { return wait_impl(/*block=*/false); }

ExitStatus ChildProcess::wait() { return wait_impl(/*block=*/true); }

void ChildProcess::terminate(int signum) {
  if (reaped_ || !valid()) return;
  ::kill(pid_, signum);
}

}  // namespace nada::svc
