// Order-preserving key encoding for B+-tree indexes.
//
// Composite keys are encoded field-by-field into a byte string whose memcmp
// order equals the tuple order of the fields: big-endian biased integers,
// then raw bytes for text (padded comparison semantics).
#pragma once

#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/slice.h"

namespace sias {

/// The 8 key bytes of a signed 64-bit field, order-preserving (bias by
/// 2^63, big-endian).
inline void EncodeIntKeyField(uint8_t* buf, int64_t v) {
  EncodeBigEndian64(buf, static_cast<uint64_t>(v) + (1ull << 63));
}

/// Builder for order-preserving composite keys.
class KeyBuilder {
 public:
  /// Signed 64-bit (EncodeIntKeyField).
  KeyBuilder& AddInt(int64_t v) {
    uint8_t buf[8];
    EncodeIntKeyField(buf, v);
    key_.append(reinterpret_cast<char*>(buf), 8);
    return *this;
  }

  /// Arbitrary bytes, order-preserving. Content byte 0x00 is escaped to
  /// 0x00 0xFF and the field is terminated by 0x00 0x00, so (a) a prefix
  /// orders before its extensions (terminator 0x00 0x00 < any content
  /// byte, including an escaped NUL's 0x00 0xFF), and (b) embedded zero
  /// bytes keep memcmp order — the previous bare-0x00 terminator made
  /// "a" and "a\0..." collide at the terminator position.
  KeyBuilder& AddString(Slice s) {
    for (size_t i = 0; i < s.size(); ++i) {
      char c = static_cast<char>(s.data()[i]);
      key_.push_back(c);
      if (c == '\0') key_.push_back('\xff');
    }
    key_.push_back('\0');
    key_.push_back('\0');
    return *this;
  }

  const std::string& key() const { return key_; }
  std::string Take() { return std::move(key_); }

 private:
  std::string key_;
};

/// Convenience: single-int key.
inline std::string IntKey(int64_t v) { return KeyBuilder().AddInt(v).Take(); }

}  // namespace sias
