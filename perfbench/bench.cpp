#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>

#include "common/check.hpp"

namespace perfbench {

void Outcome::fail(const std::string& what) {
  ++failed;
  std::cerr << "perfbench: FAILED: " << what << '\n';
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void BestTimes::end_pass() {
  if (best_.empty()) {
    best_ = pass_;
  } else {
    MEMPOOL_CHECK_MSG(pass_.size() == best_.size(),
                      "a pass timed " << pass_.size() << " operations, the "
                                      << "first " << best_.size());
    for (std::size_t i = 0; i < best_.size(); ++i) {
      best_[i] = std::min(best_[i], pass_[i]);
    }
  }
  pass_.clear();
}

double BestTimes::total_ms() const {
  double sum = 0;
  for (double t : best_) sum += t;
  return sum;
}

void ChunkLog::add(double seconds, uint64_t chunk_cycles, uint64_t chunk_ops) {
  ms.push_back(seconds * 1e3);
  best.add(seconds * 1e3);
  run_s += seconds;
  pass_s_ += seconds;
  pass_cycles_ += chunk_cycles;
  pass_ops_ += chunk_ops;
  ++pass_chunks_;
}

void ChunkLog::end_pass() {
  pass_cycles_per_s.push_back(static_cast<double>(pass_cycles_) / pass_s_);
  pass_chunks_per_s.push_back(static_cast<double>(pass_chunks_) / pass_s_);
  best.end_pass();
  cycles_per_pass_ = pass_cycles_;
  ops_per_pass_ = pass_ops_;
  pass_s_ = 0;
  pass_cycles_ = pass_ops_ = pass_chunks_ = 0;
}

void ChunkLog::report(Outcome* out) const {
  const double best_s = best.total_ms() / 1e3;
  out->values["sim_cycles_per_s"] =
      static_cast<double>(cycles_per_pass_) / best_s;
  out->values["sim_instructions_per_s"] =
      static_cast<double>(ops_per_pass_) / best_s;
  out->values["requests_per_s"] = static_cast<double>(best.size()) / best_s;
  out->values["request_ms_p50"] = best.quantile(0.5);
  out->values["request_ms_p99"] = best.quantile(0.99);
  out->values["sim.run_chunk_ms_p50"] = quantile(ms, 0.5);
  out->values["sim.run_chunk_ms_p99"] = quantile(ms, 0.99);
  out->notes.push_back(
      std::to_string(ms.size()) + " stepping calls (requests) timed in " +
      std::to_string(pass_cycles_per_s.size()) + " passes of " +
      std::to_string(best.size()) +
      "; the end-to-end figures use each call's best time over the passes");
}

void PassTracing::record(uint64_t pass, double cycles_per_s,
                         double requests_per_s) {
  if (pass % 2 == 0) {
    untraced_cycles_ = cycles_per_s;
    untraced_requests_ = requests_per_s;
    return;
  }
  cycles_diff_.push_back(untraced_cycles_ - cycles_per_s);
  requests_diff_.push_back(untraced_requests_ - requests_per_s);
}

void PassTracing::report(Outcome* out) const {
  if (tracer_ == nullptr) return;
  out->values["trace.overhead_cycles_per_s"] = median(cycles_diff_);
  out->values["trace.overhead_requests_per_s"] = median(requests_diff_);
  out->notes.push_back("tracing overhead: median over " +
                       std::to_string(cycles_diff_.size()) +
                       " (untraced, traced) pass pairs");
}

}  // namespace perfbench
