// Inter-node messages for the guest systems.
//
// Messages are typed key/value records — rich enough for consensus, block
// reports, and client traffic, while staying printable for debugging. The
// fabric only sees byte sizes; payloads ride alongside in the delivery
// closure.
//
// The type and every field key are Literals: views of string literals,
// copied with the message for free and never allocated. Fields live in a
// small flat vector in insertion order (a message carries a handful of
// fields, so a linear scan beats any tree). Integer fields stay
// int64_t and are only formatted by StrField and DebugString. ByteSize()
// counts an integer as its decimal text, so a field's size does not depend
// on how it is stored: the size is the send syscall's length and the packet
// size the tracer accounts, and must stay bit-identical.
#ifndef SRC_APPS_FRAMEWORK_MESSAGE_H_
#define SRC_APPS_FRAMEWORK_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/strings.h"
#include "src/os/process.h"

namespace rose {

struct Message {
  Literal type;
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  Message() = default;
  Message(Literal type_name, NodeId from_node, NodeId to_node)
      : type(type_name), from(from_node), to(to_node) {}

  void SetInt(Literal key, int64_t value);
  void SetStr(Literal key, std::string value);
  // Room for `count` fields, for a message known to carry more than most.
  void Reserve(size_t count) { fields_.reserve(count); }

  // An integer field, or a string field that parses as one; else `fallback`.
  int64_t IntField(std::string_view key, int64_t fallback = 0) const;
  // A string field, or an integer field in decimal; else `fallback`.
  std::string StrField(std::string_view key, const std::string& fallback = "") const;
  // A string field's bytes, valid while the message lives unmodified; empty
  // for an absent or integer field.
  std::string_view StrView(std::string_view key) const;
  bool HasField(std::string_view key) const { return Find(key) != nullptr; }

  // Approximate wire size (drives the tracer's packet accounting):
  // type + 8, plus key + value + 2 per field, integers counted in decimal.
  int64_t ByteSize() const;

  // "Type(from->to k=v ...)" with keys in sorted order.
  std::string DebugString() const;

 private:
  struct Field {
    Literal key;
    bool is_int = false;
    int64_t int_value = 0;
    std::string str_value;  // Empty for integer fields.
  };

  const Field* Find(std::string_view key) const;
  Field& Upsert(Literal key);

  std::vector<Field> fields_;
};

}  // namespace rose

#endif  // SRC_APPS_FRAMEWORK_MESSAGE_H_
