// Small string helpers shared across Rose modules.
#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <charconv>
#include <cstdarg>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace rose {

// A view of a string literal, for names that are kept without a copy:
// message types and field keys, uprobe function names. Only a const char
// array converts to it, so a std::string, a pointer or a mutable buffer does
// not compile; callers pass a literal or a static table of them, whose bytes
// outlive every holder. The view stops at the first NUL, as a const char*
// would.
class Literal {
 public:
  constexpr Literal() = default;
  template <size_t N>
  constexpr Literal(const char (&text)[N])  // NOLINT(google-explicit-constructor)
      : view_(text) {}
  template <size_t N>
  Literal(char (&text)[N]) = delete;

  constexpr std::string_view view() const { return view_; }
  constexpr const char* data() const { return view_.data(); }
  constexpr size_t size() const { return view_.size(); }

  friend constexpr bool operator==(Literal a, std::string_view b) { return a.view_ == b; }

 private:
  std::string_view view_ = "";
};

// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

// Appends the decimal form of an integer (what %d / %lld / %llu print).
template <typename Int>
void AppendDecimal(std::string* out, Int value) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

// printf-style formatting into a std::string, in one pass for results that
// fit a small stack buffer.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);
bool Contains(std::string_view s, std::string_view needle);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// Parses a non-negative integer; returns false on malformed input.
bool ParseUint64(std::string_view s, uint64_t* out);
bool ParseInt64(std::string_view s, int64_t* out);

}  // namespace rose

#endif  // SRC_COMMON_STRINGS_H_
