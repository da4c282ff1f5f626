#pragma once
// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own thread around its calls into the simulator's layers; the
// layer is the span name up to the first '.', so "sim.engine_run" counts
// toward "sim". At exit the spans are written as Chrome trace-event JSON
// (opens in Perfetto) and summarized as per-layer self time.

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class Tracer {
 public:
  Tracer();

  /// Open a span; it nests under the innermost open one. @p id tags the
  /// span with a request id (0 = none).
  void begin(const char* name, uint64_t id = 0);
  void end();

  /// A request's round trip as one async span (it overlaps other requests'
  /// spans, so it stays out of the nesting and out of the self-time sums).
  void request(const char* name, uint64_t id, Clock::time_point start,
               Clock::time_point stop);

  /// Chrome trace-event JSON; returns false when @p path cannot be written.
  bool write_chrome_json(const std::string& path) const;

  /// Per-layer self time: a span's duration minus what its children cover.
  void print_self_times(std::ostream& os) const;

  std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    int64_t parent;  ///< Index into spans_, -1 for a root.
    uint64_t id;
    uint64_t start_ns;
    uint64_t end_ns;
    bool async;
  };
  uint64_t now_ns(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* t, const char* name, uint64_t id = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(name, id);
  }
  ~Scope() {
    if (t_ != nullptr) t_->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
