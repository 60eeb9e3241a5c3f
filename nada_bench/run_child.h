// Run plumbing: every measured run of the benchmark is a forked child.
//
// A fresh process per run gives each run its own allocator and page-cache
// state, and its own peak RSS: ru_maxrss is a process-lifetime maximum,
// which wait4 reports for the child together with every descendant it
// reaped (the supervised workload's worker processes). The child
//   * clears every NADA_* environment variable, so no knob set in the
//     caller's shell changes the program being measured (re-executed worker
//     processes inherit the cleared environment),
//   * leads its own process group, so a timeout kills it and anything it
//     spawned in one signal,
//   * sends its stdout to stderr: the benchmark's stdout carries only its
//     own report lines,
//   * writes one report (any bytes; the benchmark uses JSON) to a pipe and
//     exits.
#pragma once

#include <functional>
#include <string>

namespace nada::bench {

struct ChildRun {
  bool exited_ok = false;  ///< exit code 0 and a report, within the timeout
  std::string report;      ///< what the child's body returned
  std::string failure;     ///< why !exited_ok ("exit 1", "signal 9", ...)
  double max_rss_mb = 0.0; ///< ru_maxrss over the child and its descendants
};

/// Makes this process adopt orphaned descendants, so that workers left
/// behind by a killed child are reaped here rather than by init. Call once,
/// before the first run_in_child.
void become_subreaper();

/// Forks, runs `body` in the child (see the file comment) and returns its
/// report with the child's rusage. A child still running after
/// `timeout_s` seconds is killed with its whole process group. Never
/// returns before the child and every process of its group has been
/// reaped. The caller must be single-threaded.
ChildRun run_in_child(const std::function<std::string()>& body,
                      double timeout_s);

}  // namespace nada::bench
