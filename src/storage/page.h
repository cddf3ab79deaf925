#ifndef STARBURST_STORAGE_PAGE_H_
#define STARBURST_STORAGE_PAGE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "common/result.h"

namespace starburst {

inline constexpr size_t kPageSize = 4096;

/// A fixed-size database page. Storage managers impose their own layout.
struct Page {
  std::array<uint8_t, kPageSize> data{};

  uint16_t ReadU16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, data.data() + off, sizeof(v));
    return v;
  }
  void WriteU16(size_t off, uint16_t v) {
    std::memcpy(data.data() + off, &v, sizeof(v));
  }
  uint32_t ReadU32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, data.data() + off, sizeof(v));
    return v;
  }
  void WriteU32(size_t off, uint32_t v) {
    std::memcpy(data.data() + off, &v, sizeof(v));
  }
};

using FileId = uint32_t;
using PageNo = uint32_t;

/// Record identifier: which page of the table's file, which slot.
struct Rid {
  PageNo page = 0;
  uint16_t slot = 0;

  bool operator==(const Rid& o) const { return page == o.page && slot == o.slot; }
  bool operator<(const Rid& o) const {
    return page != o.page ? page < o.page : slot < o.slot;
  }

  /// The rid packed into one integer (page above slot, so the order is
  /// kept): the value of a DML target's hidden rid column.
  int64_t ToInt() const { return (static_cast<int64_t>(page) << 16) | slot; }
  static Rid FromInt(int64_t v) {
    return Rid{static_cast<PageNo>(v >> 16), static_cast<uint16_t>(v & 0xffff)};
  }
};

/// The simulated disk: a set of page files. All pages live in memory; the
/// BufferPool in front of the Pager decides what counts as a (simulated)
/// disk read or write, which is what the cost model and benches observe.
class Pager {
 public:
  FileId CreateFile();
  /// Appends a zeroed page; returns its number.
  PageNo AppendPage(FileId file);
  size_t PageCount(FileId file) const;
  /// Direct access, no I/O accounting (BufferPool uses this internally).
  Page* RawPage(FileId file, PageNo page);
  const Page* RawPage(FileId file, PageNo page) const;

 private:
  std::vector<std::vector<std::unique_ptr<Page>>> files_;
};

}  // namespace starburst

#endif  // STARBURST_STORAGE_PAGE_H_
