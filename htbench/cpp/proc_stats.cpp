#include "proc_stats.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace htbench {

std::optional<ThreadCpu> parse_thread_stat(std::string_view line, double ticks_per_s) {
  const auto open = line.find('(');
  const auto close = line.rfind(')');
  if (open == std::string_view::npos || close == std::string_view::npos || close < open ||
      ticks_per_s <= 0.0) {
    return std::nullopt;
  }
  ThreadCpu out;
  const std::string_view tid_text = line.substr(0, open);
  const auto first = tid_text.find_first_not_of(' ');
  const auto last = tid_text.find_last_not_of(' ');
  if (first == std::string_view::npos) return std::nullopt;
  const auto [p, ec] =
      std::from_chars(tid_text.data() + first, tid_text.data() + last + 1, out.tid);
  if (ec != std::errc() || p != tid_text.data() + last + 1) return std::nullopt;

  // After "(comm) " come fields 3.. of proc(5): state is field 3, utime
  // field 14 and stime field 15, i.e. the 12th and 13th after state.
  std::istringstream rest{std::string(line.substr(close + 1))};
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15; ++i) {
    if (!(rest >> field)) return std::nullopt;
    if (i == 14 || i == 15) {
      unsigned long long v = 0;
      const auto [q, ec2] = std::from_chars(field.data(), field.data() + field.size(), v);
      if (ec2 != std::errc() || q != field.data() + field.size()) return std::nullopt;
      (i == 14 ? utime : stime) = v;
    }
  }
  out.cpu_s = static_cast<double>(utime + stime) / ticks_per_s;
  return out;
}

std::vector<ThreadCpu> read_thread_cpu(const std::string& task_dir) {
  const double ticks = static_cast<double>(sysconf(_SC_CLK_TCK));
  std::vector<ThreadCpu> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(task_dir, ec)) {
    std::ifstream in(entry.path() / "stat");
    std::string line;
    if (!in || !std::getline(in, line)) continue;  // thread exited meanwhile
    if (auto t = parse_thread_stat(line, ticks)) out.push_back(*t);
  }
  std::sort(out.begin(), out.end(),
            [](const ThreadCpu& a, const ThreadCpu& b) { return a.tid < b.tid; });
  return out;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace htbench
