// Shared utilities for the table/figure regeneration harnesses.
//
// Every binary in bench/ regenerates one table or figure from the paper's
// evaluation (§7) and prints the series the paper reports, plus the
// paper's reference values where meaningful. Absolute agreement is not
// the goal (the substrate is a simulator, see DESIGN.md); the shape —
// who wins, by how much, where things saturate — is.
#pragma once

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/hypertester.hpp"
#include "dut/capture.hpp"

namespace ht::bench {

/// Command line of a sidecar-writing bench: `--json <path>` names the
/// sidecar (none is written without it); fig9 also accepts `--loss <rate>`
/// and `--crash`. Each binary lists the flags it takes in `accepted`.
struct Args {
  std::string json;
  double loss = 0.0;
  bool crash = false;
};

/// Parse argv against `accepted`. An unknown argument, a value flag with no
/// value, or a `--loss` that is not a rate in [0, 1] exits with status 2
/// instead of running (and recording) some other sweep.
inline Args parse_args(int argc, char** argv,
                       std::initializer_list<std::string_view> accepted = {"--json"}) {
  const auto fail = [&](const char* why, const char* arg) {
    std::fprintf(stderr, "%s: %s '%s'; accepted:", argv[0], why, arg);
    for (const std::string_view f : accepted) {
      std::fprintf(stderr, " %.*s", static_cast<int>(f.size()), f.data());
    }
    std::fputc('\n', stderr);
    std::exit(2);
  };
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (std::find(accepted.begin(), accepted.end(), flag) == accepted.end()) {
      fail("unknown argument", argv[i]);
    }
    if (flag == "--crash") {
      args.crash = true;
      continue;
    }
    if (i + 1 == argc) fail("missing value for", argv[i]);
    const char* value = argv[++i];
    if (flag == "--json") {
      args.json = value;
      continue;
    }
    char* end = nullptr;
    args.loss = std::strtod(value, &end);
    if (end == value || *end != '\0' || !(args.loss >= 0.0 && args.loss <= 1.0)) {
      fail("--loss needs a rate in [0, 1], got", value);
    }
  }
  return args;
}

/// Machine-readable sidecar for a bench binary: one entry per reported
/// series, written as a flat JSON document (see scripts/bench.sh). Every
/// value is a simulated result, so a sidecar is byte-reproducible on any
/// host and the committed copy serves as a golden.
class BenchJson {
 public:
  explicit BenchJson(std::string bench, std::string path)
      : bench_(std::move(bench)), path_(std::move(path)) {}

  void add(const std::string& series, double value, const std::string& unit) {
    entries_.push_back(Entry{series, unit, value});
  }

  /// Attach a raw pre-rendered JSON value under a top-level key — e.g.
  /// `telemetry` = ht::telemetry::to_json(tester.metrics()), giving the
  /// sidecar per-port latency quantiles and queue-depth gauges next to
  /// the series numbers. The caller owns the validity of the JSON.
  void set_block(const std::string& key, std::string raw_json) {
    for (auto& b : blocks_) {
      if (b.key == key) {
        b.raw = std::move(raw_json);
        return;
      }
    }
    blocks_.push_back(Block{key, std::move(raw_json)});
  }

  /// Write the file (no-op without --json). Returns false on I/O failure.
  bool write() const {
    if (path_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"entries\": [\n", bench_.c_str());
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f, "    {\"series\": \"%s\", \"value\": %.6g, \"unit\": \"%s\"}%s\n",
                   e.series.c_str(), e.value, e.unit.c_str(), i + 1 < entries_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    for (const Block& b : blocks_) {
      std::fprintf(f, ",\n  \"%s\": %s", b.key.c_str(), b.raw.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Entry {
    std::string series;
    std::string unit;
    double value = 0.0;
  };
  struct Block {
    std::string key;
    std::string raw;
  };
  std::string bench_;
  std::string path_;
  std::vector<Entry> entries_;
  std::vector<Block> blocks_;
};

inline void headline(const std::string& what, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", what.c_str());
  if (!paper_ref.empty()) std::printf("(paper: %s)\n", paper_ref.c_str());
}

inline void row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vfprintf(stdout, fmt, args);
  va_end(args);
  std::fputc('\n', stdout);
}

/// A tester with capture sinks attached to every front-panel port.
struct Testbed {
  explicit Testbed(std::size_t ports = 4, double rate_gbps = 100.0) {
    TesterConfig cfg;
    cfg.asic.num_ports = ports;
    cfg.asic.port_rate_gbps = rate_gbps;
    tester = std::make_unique<HyperTester>(cfg);
    for (std::size_t i = 0; i < ports; ++i) {
      sinks.push_back(std::make_unique<dut::Capture>(tester->events(),
                                                     static_cast<std::uint16_t>(1000 + i),
                                                     rate_gbps));
      sinks.back()->set_count_only(true);
      sinks.back()->attach(tester->asic().port(static_cast<std::uint16_t>(i)));
    }
  }

  std::unique_ptr<HyperTester> tester;
  std::vector<std::unique_ptr<dut::Capture>> sinks;
};

/// Record TX-start timestamps on a switch port (for inter-departure-time
/// analysis) after a warmup count.
struct TxRecorder {
  explicit TxRecorder(sim::Port& port, std::size_t warmup = 200) : warmup_(warmup) {
    port.on_transmit = [this](const net::Packet&, sim::TimeNs t) {
      if (seen_++ >= warmup_) times.push_back(t);
    };
  }
  std::vector<std::uint64_t> times;

 private:
  std::size_t warmup_;
  std::size_t seen_ = 0;
};

}  // namespace ht::bench
