// Interned trace strings (filenames, socket labels, ip addresses).
//
// A production window holds up to a million events but only dozens of
// distinct strings — every open() of the same journal file, every packet on
// the same connection repeats the same pathname or ip. Interning turns the
// per-event std::string members of ScfInfo/NdInfo into 32-bit ids resolved
// against a pool owned by the trace, which shrinks events to a fixed size,
// makes copying/merging traces cheap, and gives the binary dump format a
// natural string table.
#ifndef SRC_TRACE_STRING_POOL_H_
#define SRC_TRACE_STRING_POOL_H_

#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace rose {

// Index of an interned string within its owning StringPool. Ids are only
// meaningful relative to one pool; moving events between traces goes through
// Trace::AppendRemapped, which re-interns into the destination pool.
using StrId = uint32_t;

// Every pool interns "" as id 0, so value-initialized events resolve to the
// empty string in any pool.
inline constexpr StrId kEmptyStrId = 0;

class StringPool {
 public:
  StringPool() { entries_.push_back(Entry{0, 0}); }

  // Returns the id of `s`, interning it on first sight. Ids are assigned
  // densely in first-intern order, which the binary format relies on.
  // Must not be called on an external-arena pool (no index is built there;
  // mutate via Trace::Promote-style re-interning into a fresh pool instead).
  StrId Intern(std::string_view s);

  // The string for `id`; the empty string for out-of-range ids. The view
  // points into the pool's arena: it is invalidated by a later Intern() (the
  // arena may relocate), so resolve ids only while the pool is not growing —
  // true for every dumped, parsed, or merged trace. External-arena pools
  // (zero-copy mapped traces) resolve against the bound arena instead, which
  // must outlive the pool and every view taken from it.
  std::string_view View(StrId id) const {
    if (id >= entries_.size()) {
      return {};
    }
    const Entry& entry = entries_[id];
    if (external_base_ != nullptr) {
      return std::string_view(external_base_ + entry.offset, entry.length);
    }
    return std::string_view(arena_).substr(entry.offset, entry.length);
  }

  // Number of distinct strings, counting the implicit empty string.
  size_t size() const { return entries_.size(); }
  // Total bytes of distinct string payload (the arena size).
  size_t payload_bytes() const { return payload_bytes_; }

  // --- External (zero-copy) arena mode ---------------------------------------
  //
  // A mapped RTRC file already holds every pool string; instead of copying
  // them into a private arena, the pool can resolve ids as offsets into that
  // mapped region. Bind the base once, then append offset/length entries in
  // stream order. No dedup index is built: Intern() is a programming error on
  // an external pool. Copies of the pool share the base pointer — the mapping
  // must outlive them all.
  void BindExternalArena(const char* base) {
    assert(entries_.size() == 1 && "bind before appending entries");
    external_base_ = base;
  }
  // Appends `s`, which must lie in the bound arena, as the next entry; false
  // when its offset or length does not fit an entry.
  bool AppendExternal(std::string_view s) {
    assert(external_base_ != nullptr);
    const auto offset = static_cast<size_t>(s.data() - external_base_);
    if (offset > UINT32_MAX || s.size() > UINT32_MAX) {
      return false;
    }
    entries_.push_back(Entry{static_cast<uint32_t>(offset), static_cast<uint32_t>(s.size())});
    payload_bytes_ += s.size();
    return true;
  }
  void ReserveEntries(size_t n) { entries_.reserve(n); }
  bool external() const { return external_base_ != nullptr; }

 private:
  // Entries store offsets into the arena, not pointers, so the defaulted
  // copy/move of a pool (and of any Trace owning one) stays correct.
  struct Entry {
    uint32_t offset = 0;
    uint32_t length = 0;
  };

  // Transparent hashing: lookups take string_view without materializing a
  // std::string — Intern is on the tracer's record path.
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::string arena_;
  // Set when entries resolve against a caller-owned region (a mapped trace
  // file) instead of `arena_`; never owned by the pool.
  const char* external_base_ = nullptr;
  size_t payload_bytes_ = 0;
  std::vector<Entry> entries_;
  std::unordered_map<std::string, StrId, Hash, std::equal_to<>> index_;
};

}  // namespace rose

#endif  // SRC_TRACE_STRING_POOL_H_
