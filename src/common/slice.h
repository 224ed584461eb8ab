// Non-owning byte view, RocksDB-style.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace sias {

/// A pointer + length view over immutable bytes.
class Slice {
 public:
  Slice() : data_(nullptr), size_(0) {}
  Slice(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  Slice(const char* data, size_t size)
      : data_(reinterpret_cast<const uint8_t*>(data)), size_(size) {}
  Slice(const std::string& s) : Slice(s.data(), s.size()) {}       // NOLINT
  Slice(std::string_view s) : Slice(s.data(), s.size()) {}         // NOLINT
  Slice(const char* s) : Slice(s, ::strlen(s)) {}                  // NOLINT

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  uint8_t operator[](size_t i) const { return data_[i]; }

  std::string ToString() const {
    return std::string(reinterpret_cast<const char*>(data_), size_);
  }

  /// memcmp ordering (the ordering used by byte-comparable index keys).
  int Compare(const Slice& other) const {
    size_t n = size_ < other.size_ ? size_ : other.size_;
    int r = n == 0 ? 0 : ::memcmp(data_, other.data_, n);
    if (r != 0) return r;
    if (size_ < other.size_) return -1;
    if (size_ > other.size_) return 1;
    return 0;
  }

  bool operator==(const Slice& o) const { return Compare(o) == 0; }
  bool operator!=(const Slice& o) const { return Compare(o) != 0; }
  bool operator<(const Slice& o) const { return Compare(o) < 0; }

 private:
  const uint8_t* data_;
  size_t size_;
};

}  // namespace sias
