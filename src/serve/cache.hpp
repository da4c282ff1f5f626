#pragma once
// Content-addressed result cache for the simulation service.
//
// Keys are SimRequest content hashes; a hit additionally compares the stored
// canonical request string, so an FNV collision degrades to a miss instead
// of a wrong answer. Callers pass the request's CanonicalForm, derived once
// per request, so a lookup does no canonicalization of its own. Two tiers:
//
//   memory  a bounded LRU (insert/lookup touch recency; the least recently
//           used entry is evicted at capacity). Thread-safe behind one
//           mutex — the cache sits on the request path of a multi-threaded
//           server, and a map lookup is noise next to a simulation.
//
//   disk    optional write-through directory: every insert is persisted as
//           <key>.json ({"schema": "mempool.simcache.v1", "version",
//           "request", "result"}), every memory miss re-checks the
//           directory. Files whose version is not serve::kResultVersion —
//           or that fail to parse, or whose stored request does not match —
//           are ignored, so bumping the version invalidates every stale
//           result without any migration step. File reads and writes happen
//           outside the memory-tier mutex, so disk latency never blocks
//           concurrent lookups. Disk I/O errors never fail a request: a
//           cache that cannot persist still serves (counted in
//           Stats::disk_errors).

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "serve/request.hpp"

namespace mempool::serve {

class ResultCache {
 public:
  struct Stats {
    uint64_t hits = 0;         ///< Served from memory.
    uint64_t disk_hits = 0;    ///< Memory miss, revived from the disk store.
    uint64_t misses = 0;       ///< Not found anywhere (includes version /
                               ///< collision mismatches).
    uint64_t insertions = 0;
    uint64_t evictions = 0;    ///< LRU entries dropped at capacity.
    uint64_t disk_errors = 0;  ///< Persist/parse failures, all non-fatal.

    Json to_json() const;
  };

  /// @param capacity   maximum in-memory entries (>= 1).
  /// @param disk_dir   write-through store directory; empty disables the
  ///                   disk tier. Created (one level) on first use.
  explicit ResultCache(std::size_t capacity, std::string disk_dir = "");

  /// Look up the request of canonical form @p form; a hit refreshes its
  /// recency. Memory misses consult the disk tier (a disk hit is inserted
  /// back into memory).
  std::optional<SimResult> lookup(const CanonicalForm& form);

  /// Insert (or refresh) the result for the request of canonical form
  /// @p form; persists to the disk tier when one is configured.
  void insert(const CanonicalForm& form, const SimResult& result);

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  const std::string& disk_dir() const { return disk_dir_; }
  Stats stats() const;

 private:
  struct Entry {
    uint64_t hash;
    std::string canonical;  ///< Collision guard.
    SimResult result;
  };

  /// Disk tier for a memory miss. Reads and parses the file WITHOUT holding
  /// mu_ (file I/O must not block concurrent memory-tier lookups), then
  /// reacquires it to revive the entry and count the outcome.
  std::optional<SimResult> disk_lookup(const CanonicalForm& form);
  void insert_locked(uint64_t hash, const std::string& canonical,
                     const SimResult& result);
  std::string disk_path(const std::string& key) const;

  const std::size_t capacity_;
  const std::string disk_dir_;

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< Front = most recently used.
  std::unordered_map<uint64_t, std::list<Entry>::iterator> index_;
  Stats stats_;
};

}  // namespace mempool::serve
