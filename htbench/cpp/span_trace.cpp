#include "span_trace.hpp"

#include <algorithm>
#include <cstdio>

namespace htbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, std::string name, const char* category)
    : rec_(rec) {
  if (rec_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.category = category;
  s.id = static_cast<std::uint32_t>(rec_->spans_.size() + 1);
  s.parent = rec_->open_.empty() ? 0 : rec_->open_.back();
  s.rep = rec_->rep_;
  index_ = rec_->spans_.size();
  rec_->open_.push_back(s.id);
  s.start_ns = rec_->now_ns();
  rec_->spans_.push_back(std::move(s));
}

double SpanRecorder::Scope::end() {
  if (rec_ == nullptr) return 0.0;
  Span& s = rec_->spans_[index_];
  s.dur_ns = rec_->now_ns() - s.start_ns;
  // Scopes nest lexically, so the span closing is the innermost open one.
  if (!rec_->open_.empty() && rec_->open_.back() == s.id) rec_->open_.pop_back();
  rec_ = nullptr;
  return static_cast<double>(s.dur_ns) * 1e-9;
}

double SpanRecorder::seconds(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.rep == rep_ && s.name == name) ns += s.dur_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

namespace {

std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string SpanRecorder::chrome_trace_json(const std::string& metadata) const {
  std::int64_t t0 = 0;
  if (!spans_.empty()) {
    t0 = std::min_element(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
           return a.start_ns < b.start_ns;
         })->start_ns;
  }
  std::string out = "{\"traceEvents\": [\n";
  out +=
      "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"htbench (host time)\"}}";
  for (const Span& s : spans_) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %u, \"parent\": %u, \"rep\": %u}}",
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.dur_ns) * 1e-3, s.id, s.parent, s.rep);
    out += ",\n{\"name\": \"" + json_escape(s.name) + "\", \"cat\": \"" +
           json_escape(s.category) + "\", " + buf;
  }
  out += "\n], \"displayTimeUnit\": \"ms\"";
  if (!metadata.empty()) out += ", \"metadata\": " + metadata;
  out += "}\n";
  return out;
}

}  // namespace htbench
