#include "src/apps/framework/message.h"

#include <algorithm>

#include "src/common/strings.h"

namespace rose {

namespace {

// Most messages carry at most this many fields; one allocation covers them.
constexpr size_t kInitialFields = 8;

// Length of std::to_string(value).
int64_t DecimalLength(int64_t value) {
  uint64_t magnitude =
      value < 0 ? 0 - static_cast<uint64_t>(value) : static_cast<uint64_t>(value);
  int64_t digits = 1;
  while (magnitude >= 10) {
    magnitude /= 10;
    digits++;
  }
  return value < 0 ? digits + 1 : digits;
}

}  // namespace

const Message::Field* Message::Find(std::string_view key) const {
  for (const Field& field : fields_) {
    if (field.key == key) {
      return &field;
    }
  }
  return nullptr;
}

Message::Field& Message::Upsert(Literal key) {
  for (Field& field : fields_) {
    if (field.key == key.view()) {
      return field;
    }
  }
  if (fields_.empty()) {
    fields_.reserve(kInitialFields);
  }
  Field& field = fields_.emplace_back();
  field.key = key;
  return field;
}

void Message::SetInt(Literal key, int64_t value) {
  Field& field = Upsert(key);
  field.is_int = true;
  field.int_value = value;
  field.str_value.clear();
}

void Message::SetStr(Literal key, std::string value) {
  Field& field = Upsert(key);
  field.is_int = false;
  field.int_value = 0;
  field.str_value = std::move(value);
}

int64_t Message::IntField(std::string_view key, int64_t fallback) const {
  const Field* field = Find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (field->is_int) {
    return field->int_value;
  }
  int64_t value = 0;
  return ParseInt64(field->str_value, &value) ? value : fallback;
}

std::string Message::StrField(std::string_view key, const std::string& fallback) const {
  const Field* field = Find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (!field->is_int) {
    return field->str_value;
  }
  std::string out;
  AppendDecimal(&out, field->int_value);
  return out;
}

std::string_view Message::StrView(std::string_view key) const {
  const Field* field = Find(key);
  return field == nullptr ? std::string_view() : std::string_view(field->str_value);
}

int64_t Message::ByteSize() const {
  int64_t size = static_cast<int64_t>(type.size()) + 8;
  for (const Field& field : fields_) {
    const int64_t value_size = field.is_int ? DecimalLength(field.int_value)
                                            : static_cast<int64_t>(field.str_value.size());
    size += static_cast<int64_t>(field.key.size()) + value_size + 2;
  }
  return size;
}

std::string Message::DebugString() const {
  std::vector<const Field*> sorted;
  sorted.reserve(fields_.size());
  for (const Field& field : fields_) {
    sorted.push_back(&field);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Field* a, const Field* b) { return a->key.view() < b->key.view(); });
  std::string out(type.view());
  out += StrFormat("(%d->%d", from, to);
  for (const Field* field : sorted) {
    out += ' ';
    out += field->key.view();
    out += '=';
    if (field->is_int) {
      AppendDecimal(&out, field->int_value);
    } else {
      out += field->str_value;
    }
  }
  out += ")";
  return out;
}

}  // namespace rose
