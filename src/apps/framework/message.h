// Inter-node messages for the guest systems.
//
// Messages are typed key/value records — rich enough for consensus, block
// reports, and client traffic, while staying printable for debugging. The
// fabric only sees byte sizes; payloads ride alongside in the delivery
// closure.
//
// Fields live in one flat vector in insertion order (a message carries a
// handful of fields, so a linear scan beats any tree), and SetInt values
// stay native int64_t. A field's wire size is still that of its decimal
// text: ByteSize() counts the digits std::to_string would have printed, so
// packet accounting is the same whichever setter wrote the field.
#ifndef SRC_APPS_FRAMEWORK_MESSAGE_H_
#define SRC_APPS_FRAMEWORK_MESSAGE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/os/process.h"

namespace rose {

struct Message {
  std::string type;
  NodeId from = kNoNode;
  NodeId to = kNoNode;

  Message() = default;
  Message(std::string type_name, NodeId from_node, NodeId to_node)
      : type(std::move(type_name)), from(from_node), to(to_node) {}

  // Setting a key again replaces its value, whatever type it had.
  void SetInt(std::string_view key, int64_t value);
  void SetStr(std::string_view key, std::string value);

  // A string field that does not parse as an int64_t yields `fallback`.
  int64_t IntField(std::string_view key, int64_t fallback = 0) const;
  // An int field reads as its decimal text.
  std::string StrField(std::string_view key, std::string_view fallback = "") const;
  bool HasField(std::string_view key) const { return Find(key) != nullptr; }

  // Approximate wire size (drives the tracer's packet accounting):
  // type + 8, plus key + value + 2 per field, an int value counting as
  // its decimal text.
  int64_t ByteSize() const;

  // "Type(from->to k=v ...)" with fields in key order.
  std::string DebugString() const;

 private:
  struct Field {
    std::string key;
    std::string text;     // The value of a string field.
    int64_t number = 0;   // The value of an int field.
    bool is_int = false;
  };

  const Field* Find(std::string_view key) const;
  Field& Slot(std::string_view key);

  std::vector<Field> fields_;
};

}  // namespace rose

#endif  // SRC_APPS_FRAMEWORK_MESSAGE_H_
