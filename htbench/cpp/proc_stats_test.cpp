// Tests of the benchmark's /proc readers.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>

#include "proc_stats.hpp"

namespace {

using htbench::parse_thread_stat;

TEST(ParseThreadStat, ReadsUtimePlusStime) {
  // Fields 14 (utime) = 250 and 15 (stime) = 50 ticks at 100 ticks/s.
  const std::string line =
      "4242 (htbench_run) R 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
  const auto t = parse_thread_stat(line, 100.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tid, 4242);
  EXPECT_DOUBLE_EQ(t->cpu_s, 3.0);
}

TEST(ParseThreadStat, CommWithSpacesAndParens) {
  const std::string line = "7 (a (b) c) S 1 7 7 0 -1 0 0 0 0 0 10 20 0 0 20 0 1 0 1 2 3";
  const auto t = parse_thread_stat(line, 100.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->tid, 7);
  EXPECT_DOUBLE_EQ(t->cpu_s, 0.3);
}

TEST(ParseThreadStat, RejectsMalformed) {
  EXPECT_FALSE(parse_thread_stat("", 100.0).has_value());
  EXPECT_FALSE(parse_thread_stat("12 (x) R 1 2", 100.0).has_value());
  EXPECT_FALSE(parse_thread_stat("x12 (x) R 1 2 3 4 5 6 7 8 9 10 11 12 13", 100.0).has_value());
  EXPECT_FALSE(parse_thread_stat("12 (x) R 1 2 3 4 5 6 7 8 9 10 1x 12 13", 100.0).has_value());
}

TEST(ReadThreadCpu, ReadsAFakeTaskDirectory) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("htbench_task_" + std::to_string(getpid()));
  std::filesystem::remove_all(dir);
  for (const auto& [tid, utime] : {std::pair{30, 100}, std::pair{20, 300}}) {
    std::filesystem::create_directories(dir / std::to_string(tid));
    std::ofstream(dir / std::to_string(tid) / "stat")
        << tid << " (w) S 1 1 1 0 -1 0 0 0 0 0 " << utime << " 0 0 0 20 0 1 0 1 2 3\n";
  }
  std::filesystem::create_directories(dir / "40");  // thread gone: no stat file
  const auto threads = htbench::read_thread_cpu(dir.string());
  std::filesystem::remove_all(dir);
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[0].tid, 20);  // sorted by tid
  EXPECT_DOUBLE_EQ(threads[0].cpu_s, 300.0 / hz);
  EXPECT_EQ(threads[1].tid, 30);
}

TEST(ReadThreadCpu, SeesABusyThreadOfThisProcess) {
  std::atomic<bool> stop{false};
  std::thread spinner([&] {
    while (!stop.load(std::memory_order_relaxed)) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto threads = htbench::read_thread_cpu();
  stop = true;
  spinner.join();
  ASSERT_GE(threads.size(), 2u);
  double spinner_cpu = 0.0;
  for (const auto& t : threads) {
    if (t.tid != getpid()) spinner_cpu = std::max(spinner_cpu, t.cpu_s);
  }
  EXPECT_GT(spinner_cpu, 0.05);  // ~0.3 s of spinning, 10 ms tick resolution
}

TEST(ProcessStats, CpuAndPeakRss) {
  const double c0 = htbench::process_cpu_s();
  volatile double x = 0.0;
  for (int i = 0; i < 20'000'000; ++i) x = x + 1.0;
  EXPECT_GT(htbench::process_cpu_s(), c0);
  EXPECT_GT(htbench::peak_rss_mb(), 0.5);
}

}  // namespace
