#include "serve/cache.hpp"

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <thread>

#include "common/check.hpp"
#include "runner/results.hpp"

namespace mempool::serve {

Json ResultCache::Stats::to_json() const {
  Json j = Json::object();
  j.set("hits", hits);
  j.set("disk_hits", disk_hits);
  j.set("misses", misses);
  j.set("insertions", insertions);
  j.set("evictions", evictions);
  j.set("disk_errors", disk_errors);
  const uint64_t looked_up = hits + disk_hits + misses;
  j.set("hit_rate", looked_up == 0 ? 0.0
                                   : static_cast<double>(hits + disk_hits) /
                                         static_cast<double>(looked_up));
  return j;
}

ResultCache::ResultCache(std::size_t capacity, std::string disk_dir)
    : capacity_(capacity), disk_dir_(std::move(disk_dir)) {
  MEMPOOL_CHECK_MSG(capacity_ >= 1, "result cache capacity must be >= 1");
  if (!disk_dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(disk_dir_, ec);
    MEMPOOL_CHECK_MSG(!ec, "cannot create cache directory '"
                               << disk_dir_ << "': " << ec.message());
  }
}

std::string ResultCache::disk_path(const std::string& key) const {
  return disk_dir_ + "/" + key + ".json";
}

std::optional<SimResult> ResultCache::lookup(const CanonicalForm& form) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(form.hash);
    if (it != index_.end() && it->second->canonical == form.text) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      ++stats_.hits;
      return it->second->result;
    }
    if (disk_dir_.empty()) {
      ++stats_.misses;
      return std::nullopt;
    }
  }
  return disk_lookup(form);
}

std::optional<SimResult> ResultCache::disk_lookup(const CanonicalForm& form) {
  // mu_ is NOT held here: reading and parsing the file can take milliseconds
  // and must not stall the memory tier. Two threads racing the same file
  // both revive it; insert_locked refreshes in place, so that is benign.
  const std::string path = disk_path(form.key);
  std::optional<SimResult> result;
  bool io_error = false;
  std::error_code ec;
  if (std::filesystem::exists(path, ec) && !ec) {
    try {
      const Json doc = runner::read_json_file(path);
      if (doc.get("schema", Json("")).as_string() == "mempool.simcache.v1" &&
          doc.get("version", Json("")).as_string() == kResultVersion &&
          doc.at("request").dump(0) == form.text) {
        result = SimResult::from_json(doc.at("result"));
        // The stored result must answer *this* request: a corrupted (or
        // hand-edited) request_key inside the result payload is treated as
        // the file-level corruption it is, not served.
        if (result->request_key != form.key) {
          result.reset();
          io_error = true;
        }
      }
      // else: stale version, foreign schema, or hash collision — a miss.
    } catch (const std::exception&) {
      // A corrupt or half-written file is a miss, never a crash.
      io_error = true;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (io_error) ++stats_.disk_errors;
  if (!result) {
    ++stats_.misses;
    return std::nullopt;
  }
  insert_locked(form.hash, form.text, *result);
  ++stats_.disk_hits;
  return result;
}

void ResultCache::insert(const CanonicalForm& form, const SimResult& result) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    insert_locked(form.hash, form.text, result);
    ++stats_.insertions;
  }
  if (disk_dir_.empty()) return;
  // Persist outside mu_: the write-through file I/O sits on the request hot
  // path only for stats accounting, never for the duration of the write.
  Json doc = Json::object();
  doc.set("schema", "mempool.simcache.v1");
  doc.set("version", kResultVersion);
  // The canonical text parses back to the request object it was dumped
  // from; disk_lookup compares that object's re-dump with the canonical.
  doc.set("request", Json::parse(form.text));
  doc.set("result", result.to_json());
  // Write-temp-then-rename: with the write un-serialized, a concurrent
  // lookup (or a same-key writer — identical bytes, results being
  // deterministic) must only ever observe complete files.
  const std::string path = disk_path(form.key);
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << ::getpid() << "."
           << std::this_thread::get_id();
  const std::string tmp = tmp_name.str();
  try {
    runner::write_json_file(tmp, doc);
    std::filesystem::rename(tmp, path);
  } catch (const std::exception&) {
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.disk_errors;  // cannot persist — still serve from memory
  }
}

void ResultCache::insert_locked(uint64_t hash, const std::string& canonical,
                                const SimResult& result) {
  const auto it = index_.find(hash);
  if (it != index_.end()) {
    // Refresh in place; a colliding canonical simply takes over the slot
    // (the guard in lookup keeps either occupant correct).
    it->second->canonical = canonical;
    it->second->result = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().hash);
    lru_.pop_back();
    ++stats_.evictions;
  }
  lru_.push_front(Entry{hash, canonical, result});
  index_[hash] = lru_.begin();
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

ResultCache::Stats ResultCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace mempool::serve
