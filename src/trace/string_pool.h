// Interned trace strings (filenames, socket labels, ip addresses).
//
// A production window holds up to a million events but only dozens of
// distinct strings — every open() of the same journal file, every packet on
// the same connection repeats the same pathname or ip. Interning turns the
// per-event std::string members of ScfInfo/NdInfo into 32-bit ids resolved
// against a pool owned by the trace, which shrinks events to a fixed size,
// makes copying/merging traces cheap, and gives the binary dump format a
// natural string table.
//
// Every pool owns its bytes, decoded dumps included: a window's strings are
// few and short (the seed-42 RedisRaft-42 dump holds 14, 149 payload bytes
// in all), so copying them on decode costs nothing measurable (DESIGN.md
// §13).
#ifndef SRC_TRACE_STRING_POOL_H_
#define SRC_TRACE_STRING_POOL_H_

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
  StrId Intern(std::string_view s);

  // The string for `id`; the empty string for out-of-range ids. The view
  // points into the pool's arena: it is invalidated by a later Intern() (the
  // arena may relocate), so resolve ids only while the pool is not growing —
  // true for every dumped, parsed, or merged trace.
  std::string_view View(StrId id) const {
    if (id >= entries_.size()) {
      return {};
    }
    const Entry& entry = entries_[id];
    return std::string_view(arena_).substr(entry.offset, entry.length);
  }

  // Number of distinct strings, counting the implicit empty string.
  size_t size() const { return entries_.size(); }
  // Total bytes of distinct string payload (the arena size).
  size_t payload_bytes() const { return arena_.size(); }

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
  std::vector<Entry> entries_;
  std::unordered_map<std::string, StrId, Hash, std::equal_to<>> index_;
};

}  // namespace rose

#endif  // SRC_TRACE_STRING_POOL_H_
