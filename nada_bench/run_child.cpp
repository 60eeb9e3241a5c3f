#include "run_child.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <vector>

extern char** environ;

namespace nada::bench {

void become_subreaper() { ::prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0); }

namespace {

void clear_nada_env() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string text = *entry;
    if (text.rfind("NADA_", 0) == 0) names.push_back(text.substr(0, text.find('=')));
  }
  for (const auto& name : names) ::unsetenv(name.c_str());
}

[[noreturn]] void child_main(int report_fd,
                             const std::function<std::string()>& body) {
  ::setpgid(0, 0);
  ::dup2(STDERR_FILENO, STDOUT_FILENO);
  clear_nada_env();
  int code = 0;
  try {
    const std::string report = body();
    std::size_t written = 0;
    while (written < report.size()) {
      const ssize_t n = ::write(report_fd, report.data() + written,
                                report.size() - written);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        code = 1;
        break;
      }
      written += static_cast<std::size_t>(n);
    }
  } catch (const std::exception& e) {
    std::cerr << "nada_bench: run failed: " << e.what() << "\n";
    code = 1;
  }
  std::cout.flush();
  std::cerr.flush();
  // _exit: never run the parent's atexit hooks or flush its stdio copies.
  ::_exit(code);
}

std::string describe_status(int status) {
  if (WIFEXITED(status)) return "exit " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status)) return "signal " + std::to_string(WTERMSIG(status));
  return "status " + std::to_string(status);
}

}  // namespace

ChildRun run_in_child(const std::function<std::string()>& body,
                      double timeout_s) {
  std::cout.flush();
  std::cerr.flush();
  std::fflush(nullptr);
  int fds[2];
  // O_CLOEXEC: processes the child execs (supervised workers) must not hold
  // the write end, or the parent would wait for them to see end-of-file.
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe2: ") + std::strerror(errno));
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    ::close(fds[0]);
    child_main(fds[1], body);
  }
  ::setpgid(pid, pid);  // also done by the child; whichever runs first wins
  ::close(fds[1]);

  ChildRun run;
  bool timed_out = false;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  char buffer[4096];
  for (;;) {
    const double left = std::chrono::duration<double>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
    if (left <= 0.0) {
      timed_out = true;
      break;
    }
    pollfd pfd{fds[0], POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;  // re-checks the deadline
    const ssize_t n = ::read(fds[0], buffer, sizeof(buffer));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // end of file: the child has exited (or closed)
    run.report.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);

  // Kill the group before reaping its leader: while the leader is a zombie
  // its pid (the group id) cannot be reused, so the signal reaches only
  // this run's processes. After a clean exit the group holds no live
  // process and the signal is a no-op.
  ::kill(-pid, SIGKILL);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  // Workers orphaned by a killed child were adopted by this process
  // (become_subreaper); reap them so none outlives the run.
  while (::waitpid(-1, nullptr, 0) > 0 || errno == EINTR) {
  }

  // Linux reports ru_maxrss in KiB.
  run.max_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  if (timed_out) {
    run.failure = "timeout after " + std::to_string(timeout_s) + " s";
  } else if (!(WIFEXITED(status) && WEXITSTATUS(status) == 0)) {
    run.failure = describe_status(status);
  } else if (run.report.empty()) {
    run.failure = "no report";
  } else {
    run.exited_ok = true;
  }
  return run;
}

}  // namespace nada::bench
