#include "src/apps/framework/message.h"

#include <algorithm>

#include "src/common/strings.h"

namespace rose {

namespace {

// Room a message's field vector grows to first; most guest messages carry
// fewer fields and never reallocate.
constexpr size_t kReservedFields = 8;

// Length of std::to_string(value), without building the string.
int64_t DecimalLength(int64_t value) {
  // Negate in unsigned arithmetic: -INT64_MIN does not fit in int64_t.
  uint64_t magnitude = value < 0 ? 0 - static_cast<uint64_t>(value)
                                 : static_cast<uint64_t>(value);
  int64_t length = value < 0 ? 2 : 1;
  while (magnitude >= 10) {
    magnitude /= 10;
    length++;
  }
  return length;
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

Message::Field& Message::Slot(std::string_view key) {
  if (const Field* existing = Find(key)) {
    return const_cast<Field&>(*existing);
  }
  if (fields_.size() == fields_.capacity()) {
    fields_.reserve(std::max(kReservedFields, 2 * fields_.size()));
  }
  Field& field = fields_.emplace_back();
  field.key.assign(key);
  return field;
}

void Message::SetInt(std::string_view key, int64_t value) {
  Field& field = Slot(key);
  field.text.clear();
  field.number = value;
  field.is_int = true;
}

void Message::SetStr(std::string_view key, std::string value) {
  Field& field = Slot(key);
  field.text = std::move(value);
  field.number = 0;
  field.is_int = false;
}

int64_t Message::IntField(std::string_view key, int64_t fallback) const {
  const Field* field = Find(key);
  if (field == nullptr) {
    return fallback;
  }
  if (field->is_int) {
    return field->number;
  }
  int64_t value = 0;
  return ParseInt64(field->text, &value) ? value : fallback;
}

std::string Message::StrField(std::string_view key, std::string_view fallback) const {
  const Field* field = Find(key);
  if (field == nullptr) {
    return std::string(fallback);
  }
  return field->is_int ? std::to_string(field->number) : field->text;
}

int64_t Message::ByteSize() const {
  int64_t size = static_cast<int64_t>(type.size()) + 8;
  for (const Field& field : fields_) {
    const int64_t value_size =
        field.is_int ? DecimalLength(field.number) : static_cast<int64_t>(field.text.size());
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
            [](const Field* a, const Field* b) { return a->key < b->key; });
  std::string out = StrFormat("%s(%d->%d", type.c_str(), from, to);
  for (const Field* field : sorted) {
    const std::string value = field->is_int ? std::to_string(field->number) : field->text;
    out += StrFormat(" %s=%s", field->key.c_str(), value.c_str());
  }
  out += ")";
  return out;
}

}  // namespace rose
