#include "broadcast/fec.h"

#include <array>
#include <cmath>

namespace airindex::broadcast {

FecScheme FecScheme::OfRate(double rate, uint32_t data_per_group) {
  FecScheme s;
  s.data_per_group = data_per_group;
  if (rate > 0.0) {  // NaN and negatives disable
    const double parity = std::round(rate * data_per_group);
    s.parity_per_group = parity >= data_per_group
                             ? data_per_group
                             : static_cast<uint32_t>(parity);
  }
  return s;
}

FecLayout::FecLayout(uint64_t cycle_packets, FecScheme scheme)
    : scheme_(scheme),
      // A one-packet floor keeps the / and % in the slot maps well-defined
      // for an empty cycle (nothing is ever transmitted on one anyway).
      cycle_packets_(cycle_packets == 0 ? 1 : cycle_packets),
      groups_((cycle_packets_ + scheme.data_per_group - 1) /
              scheme.data_per_group),
      phys_cycle_(scheme.enabled()
                      ? cycle_packets_ + groups_ * scheme.parity_per_group
                      : cycle_packets_) {}

uint64_t FecLayout::LogicalAtOrAfterSlot(uint64_t fs) const {
  if (!scheme_.enabled()) return fs;
  const uint64_t inst = fs / phys_cycle_;
  const uint64_t r = fs % phys_cycle_;
  const uint64_t stride = scheme_.data_per_group + scheme_.parity_per_group;
  const uint32_t g = static_cast<uint32_t>(r / stride);
  const uint64_t within = r - uint64_t{g} * stride;
  const uint64_t base = inst * cycle_packets_;
  if (within < GroupDataSize(g)) {
    return base + uint64_t{g} * scheme_.data_per_group + within;
  }
  // Inside the group's parity run: the next data packet opens the next
  // group (or the next cycle repetition, for the tail group).
  const uint64_t next_group_start =
      (uint64_t{g} + 1) * scheme_.data_per_group;
  return next_group_start < cycle_packets_ ? base + next_group_start
                                           : base + cycle_packets_;
}

namespace {

/// Slicing-by-8 tables of the reflected CRC-32 polynomial 0xEDB88320:
/// `t[0]` is the bytewise table, and `t[k][i]` is `t[k - 1][i]` advanced
/// by one zero byte, the CRC contribution of byte `i` followed by k zero
/// bytes.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

uint32_t LoadLe32(const uint8_t* p) {
  return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
         uint32_t{p[3]} << 24;
}

}  // namespace

uint32_t Crc32(std::span<const uint8_t> bytes) {
  static const CrcTables kT = MakeCrcTables();
  uint32_t crc = 0xFFFFFFFFu;
  const uint8_t* p = bytes.data();
  size_t n = bytes.size();
  // Eight bytes per step: the first four fold into the running CRC, and
  // each byte looks up the table that shifts it past the bytes after it.
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kT[7][lo & 0xFFu] ^ kT[6][(lo >> 8) & 0xFFu] ^
          kT[5][(lo >> 16) & 0xFFu] ^ kT[4][lo >> 24] ^
          kT[3][hi & 0xFFu] ^ kT[2][(hi >> 8) & 0xFFu] ^
          kT[1][(hi >> 16) & 0xFFu] ^ kT[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kT[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace airindex::broadcast
