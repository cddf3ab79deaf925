// The result oracle: expected answers are computed from the Model in
// plain C++, and every engine answer is compared against them.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/value.h"

namespace perfbench {

/// What one statement must return: rows for a SELECT (compared in order
/// only when the statement has an ORDER BY), an affected-row count for
/// DML.
struct Answer {
  bool is_count = false;
  int64_t count = 0;
  bool ordered = false;
  std::vector<std::vector<starburst::Value>> rows;
};

/// Doubles agree when |a - b| <= kRelTolerance * max(1, |a|, |b|): SUMs
/// the engine adds in another order than the oracle differ in the last
/// bits, nothing more.
inline constexpr double kRelTolerance = 1e-9;

/// "" when `got` matches `expected`, else a description of the first
/// difference. Unordered answers are compared as multisets.
std::string CompareRows(const Answer& expected,
                        const std::vector<starburst::Row>& got);
std::string CompareCount(const Answer& expected, int64_t affected);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
