// How fast the host runs right now, from a fixed kernel timed next to each
// measurement.
//
// The host this benchmark was written on is a shared 4-CPU KVM guest.
// Other tenants' load slowed every CPU by up to 1.6x for minutes at a time,
// in wall and CPU time alike, so ten invocations of one workload read up
// to 25% apart, and two sets of ten taken half an hour apart differed by
// more than 30%. The benchmark therefore times a fixed kernel next to every
// measurement — a small float matrix product and a dependent walk through
// a 256 KiB table, no code of the program under test — and divides each
// time by the kernel's slowdown against the reference host. Over 20
// back-to-back invocations of abr-state-stream that cut the quartile
// spread of cand_per_s from 0.17 to 0.07 of the median, and the drift
// between the first and the last ten from 15% to 5%.
#pragma once

#include <vector>

namespace nada::bench {

/// Seconds one repetition of the kernel took on the reference host (the
/// one above, Intel Xeon, GCC 12 -O3). A normalized time reads in that
/// host's seconds.
inline constexpr double kReferenceKernelSeconds = 7.0e-5;

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Restricts the calling thread to `cpus`; false when the kernel refuses.
bool pin_thread(const std::vector<int>& cpus);

/// The kernel's slowdown against the reference host on the calling
/// thread's CPU.
[[nodiscard]] double cpu_slowdown();

/// The kernel's mean slowdown on all CPUs this process may use, with one
/// pinned thread per CPU running it at the same time (the way a run's
/// thread pool loads them).
[[nodiscard]] double host_slowdown();

}  // namespace nada::bench
