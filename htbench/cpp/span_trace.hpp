// Host-time span recorder for the benchmark's traced runs.
//
// Spans are taken with std::chrono::steady_clock around the benchmark's own
// calls into the library (build, compile, load, start, each run_for slice,
// query reads, telemetry export, state digest). They stay in memory and are
// written once, at the end, as Chrome trace JSON (Perfetto opens it like the
// repository's sim-clock traces). A null recorder makes every Scope a no-op,
// which is how untraced runs execute the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace htbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::string category;  ///< the library layer the call enters
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = top level
    std::uint32_t rep = 0;     ///< which repetition of the workload
  };

  /// RAII span; ends at destruction (or at end()).
  class Scope {
   public:
    Scope(SpanRecorder* rec, std::string name, const char* category);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Close the span now; returns its duration in seconds (0 untraced).
    double end();

   private:
    SpanRecorder* rec_;
    std::size_t index_ = 0;
  };

  void set_rep(std::uint32_t rep) { rep_ = rep; }

  /// Total seconds of the spans named `name` in the current repetition.
  double seconds(const std::string& name) const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}), timestamps in
  /// microseconds from the first span. `metadata` is spliced in verbatim
  /// as the trace's "metadata" object (must be a JSON object or empty).
  std::string chrome_trace_json(const std::string& metadata = "") const;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the spans not yet ended
  std::uint32_t rep_ = 0;
};

}  // namespace htbench
