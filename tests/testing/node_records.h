#ifndef AIRINDEX_TESTS_TESTING_NODE_RECORDS_H_
#define AIRINDEX_TESTS_TESTING_NODE_RECORDS_H_

#include <cstdint>
#include <vector>

#include "broadcast/serialization.h"
#include "common/result.h"

namespace airindex::testing_support {

/// Every record of `buf`, read with a NodeRecordCursor; the cursor's error
/// when the payload is malformed or truncated.
inline Result<std::vector<broadcast::NodeRecord>> ReadAllRecords(
    const std::vector<uint8_t>& buf,
    broadcast::CycleEncoding encoding = broadcast::CycleEncoding::kLegacy) {
  std::vector<broadcast::NodeRecord> records;
  broadcast::NodeRecordCursor cursor(buf, encoding);
  broadcast::NodeRecord rec;
  while (cursor.Next(&rec)) records.push_back(rec);
  if (!cursor.status().ok()) return cursor.status();
  return records;
}

}  // namespace airindex::testing_support

#endif  // AIRINDEX_TESTS_TESTING_NODE_RECORDS_H_
