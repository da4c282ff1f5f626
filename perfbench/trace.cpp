#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <map>

#include "common/check.hpp"
#include "common/json.hpp"

namespace perfbench {

namespace {

std::string layer_of(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

uint64_t Tracer::now_ns(Clock::time_point t) const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count());
}

void Tracer::begin(const char* name, uint64_t id) {
  const int64_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int64_t>(spans_.size()));
  spans_.push_back({name, parent, id, now_ns(Clock::now()), 0, false});
}

void Tracer::end() {
  MEMPOOL_CHECK_MSG(!open_.empty(), "Tracer::end without an open span");
  spans_[static_cast<std::size_t>(open_.back())].end_ns = now_ns(Clock::now());
  open_.pop_back();
}

void Tracer::request(const char* name, uint64_t id, Clock::time_point start,
                     Clock::time_point stop) {
  spans_.push_back({name, -1, id, now_ns(start), now_ns(stop), true});
}

bool Tracer::write_chrome_json(const std::string& path) const {
  using mempool::Json;
  Json events = Json::array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Json args = Json::object();
    args.set("span", static_cast<uint64_t>(i));
    args.set("parent", s.parent);
    if (s.id != 0) args.set("request", s.id);
    const double ts = static_cast<double>(s.start_ns) / 1e3;
    const double dur = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    if (s.async) {
      // Async begin/end pair: overlapping round trips get their own tracks.
      for (const char* ph : {"b", "e"}) {
        Json e = Json::object();
        e.set("name", s.name);
        e.set("cat", layer_of(s.name));
        e.set("ph", ph);
        e.set("id", s.id);
        e.set("ts", ph[0] == 'b' ? ts : ts + dur);
        e.set("pid", 1);
        e.set("tid", 1);
        if (ph[0] == 'b') e.set("args", args);
        events.push_back(std::move(e));
      }
      continue;
    }
    Json e = Json::object();
    e.set("name", s.name);
    e.set("cat", layer_of(s.name));
    e.set("ph", "X");
    e.set("ts", ts);
    e.set("dur", dur);
    e.set("pid", 1);
    e.set("tid", 1);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  Json doc = Json::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  std::ofstream f(path);
  f << doc.dump() << '\n';
  return static_cast<bool>(f);
}

void Tracer::print_self_times(std::ostream& os) const {
  std::vector<uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (!s.async && s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    uint64_t spans = 0;
    uint64_t total_ns = 0;
    uint64_t self_ns = 0;
  };
  std::map<std::string, Row> layers;
  uint64_t all_self = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.async) continue;
    Row& r = layers[layer_of(s.name)];
    const uint64_t dur = s.end_ns - s.start_ns;
    ++r.spans;
    r.total_ns += dur;
    r.self_ns += dur - child_ns[i];
    all_self += dur - child_ns[i];
  }
  char line[160];
  std::snprintf(line, sizeof line, "%-10s %10s %12s %12s %7s\n", "layer",
                "spans", "total_ms", "self_ms", "self%");
  os << line;
  for (const auto& [name, r] : layers) {
    std::snprintf(line, sizeof line, "%-10s %10llu %12.3f %12.3f %6.1f%%\n",
                  name.c_str(), static_cast<unsigned long long>(r.spans),
                  static_cast<double>(r.total_ns) / 1e6,
                  static_cast<double>(r.self_ns) / 1e6,
                  all_self != 0 ? 100.0 * static_cast<double>(r.self_ns) /
                                      static_cast<double>(all_self)
                                : 0.0);
    os << line;
  }
}

}  // namespace perfbench
