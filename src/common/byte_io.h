#ifndef AIRINDEX_COMMON_BYTE_IO_H_
#define AIRINDEX_COMMON_BYTE_IO_H_

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace airindex {

/// Little-endian fixed-width encode/decode helpers used by the broadcast
/// serialization layer. All broadcast records are little-endian regardless of
/// host order; these helpers are byte-order-safe.

inline void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

/// LEB128 varint: 7 value bits per byte, high bit = continuation. Small
/// values (gap-coded neighbour ids, jittered weights) take 1-2 bytes
/// instead of 4; the compact cycle encoding is built on these.
inline void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

/// Encoded size of PutVarint(v) without writing it.
inline size_t VarintBytes(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// ZigZag maps signed to unsigned so small-magnitude negatives stay short:
/// 0,-1,1,-2,2... => 0,1,2,3,4...
inline uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

inline uint16_t GetU16(const uint8_t* p) {
  return static_cast<uint16_t>(p[0]) | static_cast<uint16_t>(p[1]) << 8;
}

inline uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

inline uint64_t GetU64(const uint8_t* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         static_cast<uint64_t>(GetU32(p + 4)) << 32;
}

/// Sequential reader over a byte span with a cursor; mirrors the Put*
/// helpers. Bounds are the caller's responsibility (checked via remaining()).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit ByteReader(std::span<const uint8_t> buf)
      : ByteReader(buf.data(), buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  size_t position() const { return pos_; }
  void Skip(size_t n) { pos_ += n; }

  uint16_t ReadU16() {
    uint16_t v = GetU16(data_ + pos_);
    pos_ += 2;
    return v;
  }
  uint32_t ReadU32() {
    uint32_t v = GetU32(data_ + pos_);
    pos_ += 4;
    return v;
  }
  uint64_t ReadU64() {
    uint64_t v = GetU64(data_ + pos_);
    pos_ += 8;
    return v;
  }

  /// Reads a varint into `*v`. Unlike the fixed-width readers this is
  /// bounds-checked (a varint's length is data-dependent, so the caller
  /// cannot pre-check remaining()): returns false on truncation or on a
  /// continuation running past 64 bits, leaving the cursor mid-varint.
  bool ReadVarint(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift < 64 && pos_ < size_; shift += 7) {
      const uint8_t b = data_[pos_++];
      result |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *v = result;
        return true;
      }
    }
    return false;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

}  // namespace airindex

#endif  // AIRINDEX_COMMON_BYTE_IO_H_
