#include "src/serve/result_cache.h"

#include <filesystem>

#include "src/common/file.h"
#include "src/common/strings.h"

namespace rose {

namespace {

std::string KeyName(uint64_t key) {
  return StrFormat("%016llx", static_cast<unsigned long long>(key));
}

}  // namespace

ResultCache::ResultCache(size_t capacity, std::string dir)
    : capacity_(capacity), dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    LoadFromDisk();
  }
}

std::optional<CachedResult> ResultCache::Get(uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  lru_.splice(lru_.end(), lru_, it->second.lru_it);
  return it->second.result;
}

void ResultCache::Put(uint64_t key, const CachedResult& result) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.result = result;
    lru_.splice(lru_.end(), lru_, it->second.lru_it);
  } else {
    lru_.push_back(key);
    entries_[key] = Entry{result, std::prev(lru_.end())};
    while (entries_.size() > capacity_ && !lru_.empty()) {
      entries_.erase(lru_.front());
      lru_.pop_front();
    }
  }
  if (!dir_.empty() && result.reproduced) {
    Persist(key, result);
  }
}

void ResultCache::Persist(uint64_t key, const CachedResult& result) const {
  const std::filesystem::path base = std::filesystem::path(dir_) / KeyName(key);
  // Yaml first, meta second: the meta file is the commit point (LoadFromDisk
  // starts from .meta files), so an entry only becomes visible once both
  // halves are durably named (a crash leaves at most a stray .tmp, which
  // LoadFromDisk ignores). yaml_bytes is written last so any truncation
  // of the meta — or of the yaml it vouches for — is detectable on load.
  if (!WriteFileAtomic(base.string() + ".yaml", result.schedule_yaml)) {
    return;
  }
  std::string meta = "rose-serve-result v1\n";
  meta += StrFormat("reproduced %d\n", result.reproduced ? 1 : 0);
  meta += StrFormat("rate_permille %u\n", result.rate_permille);
  meta += StrFormat("level %u\n", result.level);
  meta += StrFormat("schedules %u\n", result.schedules);
  meta += StrFormat("runs %u\n", result.runs);
  meta += "summary " + result.fault_summary + "\n";
  meta += StrFormat("yaml_bytes %zu\n", result.schedule_yaml.size());
  WriteFileAtomic(base.string() + ".meta", meta);
}

void ResultCache::LoadFromDisk() {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) {
    return;
  }
  // Sorted for a deterministic LRU order regardless of directory iteration
  // order; the set is re-ranked by use anyway.
  std::map<uint64_t, std::string> found;
  for (const auto& entry : it) {
    const std::filesystem::path& path = entry.path();
    if (path.extension() != ".meta") {
      continue;
    }
    uint64_t key = 0;
    const std::string stem = path.stem().string();
    if (stem.size() != 16) {
      continue;
    }
    bool valid = true;
    for (char c : stem) {
      const bool hex = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
      if (!hex) {
        valid = false;
        break;
      }
      key = key << 4 | static_cast<uint64_t>(c <= '9' ? c - '0' : c - 'a' + 10);
    }
    if (valid) {
      found[key] = path.string();
    }
  }
  for (const auto& [key, meta_path] : found) {
    std::string meta;
    if (!ReadFileBytes(meta_path, &meta)) {
      continue;
    }
    CachedResult result;
    bool header_ok = false;
    bool sealed = false;  // yaml_bytes present = the meta is complete.
    uint64_t yaml_bytes = 0;
    for (const std::string& raw : Split(meta, '\n')) {
      const std::string_view line = StripWhitespace(raw);
      if (line.empty()) {
        continue;
      }
      if (!header_ok) {
        if (line != "rose-serve-result v1") {
          break;
        }
        header_ok = true;
        continue;
      }
      const size_t space = line.find(' ');
      if (space == std::string_view::npos) {
        continue;
      }
      const std::string_view field = line.substr(0, space);
      const std::string_view value = line.substr(space + 1);
      uint64_t number = 0;
      if (field == "summary") {
        result.fault_summary = std::string(value);
      } else if (ParseUint64(value, &number)) {
        if (field == "reproduced") {
          result.reproduced = number != 0;
        } else if (field == "rate_permille") {
          result.rate_permille = static_cast<uint32_t>(number);
        } else if (field == "level") {
          result.level = static_cast<uint32_t>(number);
        } else if (field == "schedules") {
          result.schedules = static_cast<uint32_t>(number);
        } else if (field == "runs") {
          result.runs = static_cast<uint32_t>(number);
        } else if (field == "yaml_bytes") {
          yaml_bytes = number;
          sealed = true;
        }
      }
    }
    std::string yaml;
    const std::string yaml_path =
        meta_path.substr(0, meta_path.size() - 5) + ".yaml";
    // `sealed` rejects a meta truncated mid-file (yaml_bytes is its last
    // line); the size check rejects a yaml truncated after its meta was
    // sealed. Either way the damaged entry is skipped cleanly — the cache
    // recovers with one fewer hit, never with a corrupt schedule.
    if (!header_ok || !sealed || !ReadFileBytes(yaml_path, &yaml) ||
        yaml.size() != yaml_bytes) {
      continue;
    }
    result.schedule_yaml = std::move(yaml);
    // Insert without re-persisting (Put would rewrite identical bytes).
    lru_.push_back(key);
    entries_[key] = Entry{std::move(result), std::prev(lru_.end())};
    while (entries_.size() > capacity_ && !lru_.empty()) {
      entries_.erase(lru_.front());
      lru_.pop_front();
    }
  }
}

}  // namespace rose
