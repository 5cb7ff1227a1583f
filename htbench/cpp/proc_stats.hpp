// Host-side resource readers for the benchmark: per-thread CPU time from
// /proc/<pid>/task/*/stat, process CPU time and peak resident memory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace htbench {

struct ThreadCpu {
  long tid = 0;
  double cpu_s = 0.0;  ///< utime + stime
};

/// Parse one `stat` line ("tid (comm) state ppid ... utime stime ...").
/// The comm field may itself hold spaces and parentheses, so fields are
/// counted from the last ')'. `ticks_per_s` is sysconf(_SC_CLK_TCK).
/// nullopt on a malformed line.
std::optional<ThreadCpu> parse_thread_stat(std::string_view line, double ticks_per_s);

/// Every thread under `task_dir` (default: this process) with its CPU
/// time so far, sorted by tid. Threads that exit while being read are
/// skipped.
std::vector<ThreadCpu> read_thread_cpu(const std::string& task_dir = "/proc/self/task");

/// CPU seconds of the whole process (all threads) so far.
double process_cpu_s();

/// CPU seconds of the calling thread so far. In a guest VM this leaves out
/// the time the host ran something else on the vCPU (steal).
double thread_cpu_s();

/// Peak resident set (VmHWM) of this process in MiB; 0 when unreadable.
double peak_rss_mb();

}  // namespace htbench
