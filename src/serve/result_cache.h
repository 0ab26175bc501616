// Canonical-hash result cache for served diagnoses.
//
// Diagnosis is a pure function of (bug spec, profile, production dump, seed):
// the engine is deterministic, so two submissions with the same canonical
// key MUST produce the same confirmed schedule — recomputing it would burn
// thousands of simulated runs to rediscover a known answer. The cache maps
//
//   key = FNV-mix(canonical trace hash, bug id, seed)
//
// to the finished DiagnosisResult essentials. The canonical trace hash
// (rose::analyze) is pool-independent, so a dump that went through save /
// load / merge round-trips still hits.
//
// Bounds and durability:
//   - In memory: LRU over `capacity` entries (Get promotes, Put evicts).
//   - On disk (optional `dir`): confirmed schedules persist as
//     `<key>.yaml` — the byte-exact FaultSchedule::ToYaml() output, valid
//     input for the executor and `lint_schedule` as-is — plus a `<key>.meta`
//     sidecar with the counters (the YAML stays pristine because the
//     schedule parser has no comment syntax). Both go through
//     WriteFileAtomic (temp file, fsync, rename, directory fsync), so each
//     survives a crash or a power loss whole or not at all. A restarted
//     daemon reloads the directory and keeps answering O(1) for every
//     schedule it ever confirmed. Unconfirmed results are cached in memory only: they are
//     deterministic too, but worthless across restarts.
#ifndef SRC_SERVE_RESULT_CACHE_H_
#define SRC_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <string>

namespace rose {

struct CachedResult {
  bool reproduced = false;
  std::string schedule_yaml;
  uint32_t rate_permille = 0;
  uint32_t level = 0;
  uint32_t schedules = 0;
  uint32_t runs = 0;
  std::string fault_summary;
};

class ResultCache {
 public:
  // Loads any persisted entries from `dir` (created if missing; empty
  // disables persistence), most recently written last into LRU order.
  ResultCache(size_t capacity, std::string dir);

  // Hit promotes the entry to most-recently-used.
  std::optional<CachedResult> Get(uint64_t key);

  // Inserts (or refreshes) an entry; persists confirmed ones when a
  // directory is configured. Evicts the least-recently-used entry beyond
  // capacity (memory only — the disk copy survives for the next restart).
  void Put(uint64_t key, const CachedResult& result);

  size_t size() const { return entries_.size(); }
  const std::string& dir() const { return dir_; }

 private:
  void Persist(uint64_t key, const CachedResult& result) const;
  void LoadFromDisk();

  size_t capacity_;
  std::string dir_;
  // MRU at the back; map points into the list.
  std::list<uint64_t> lru_;
  struct Entry {
    CachedResult result;
    std::list<uint64_t>::iterator lru_it;
  };
  std::map<uint64_t, Entry> entries_;
};

}  // namespace rose

#endif  // SRC_SERVE_RESULT_CACHE_H_
