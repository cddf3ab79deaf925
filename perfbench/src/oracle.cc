#include "oracle.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

using starburst::TypeId;
using starburst::Value;

bool IsNumber(const Value& v) {
  return v.type_id() == TypeId::kInt || v.type_id() == TypeId::kDouble;
}

double AsDouble(const Value& v) {
  return v.type_id() == TypeId::kInt ? static_cast<double>(v.int_value())
                                     : v.double_value();
}

bool SameValue(const Value& a, const Value& b) {
  if (a.type_id() == TypeId::kInt && b.type_id() == TypeId::kInt) {
    return a.int_value() == b.int_value();
  }
  if (IsNumber(a) && IsNumber(b)) {
    double x = AsDouble(a), y = AsDouble(b);
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= kRelTolerance * scale;
  }
  if (a.type_id() != b.type_id()) return false;
  return a.CompareTotal(b) == 0;
}

std::string RowText(const std::vector<Value>& row) {
  std::string s = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) s += ", ";
    s += row[i].ToString();
  }
  return s + ")";
}

/// Row order for multiset comparison. Every template leads its rows with
/// integer keys that identify the row, so doubles never decide the order.
bool RowLess(const std::vector<Value>& a, const std::vector<Value>& b) {
  for (size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    int c = a[i].CompareTotal(b[i]);
    if (c != 0) return c < 0;
  }
  return a.size() < b.size();
}

}  // namespace

std::string CompareRows(const Answer& expected,
                        const std::vector<starburst::Row>& got) {
  if (expected.is_count) return "expected an affected-row count, got rows";
  if (got.size() != expected.rows.size()) {
    return "expected " + std::to_string(expected.rows.size()) +
           " rows, got " + std::to_string(got.size());
  }
  std::vector<std::vector<Value>> actual;
  actual.reserve(got.size());
  for (const starburst::Row& r : got) actual.push_back(r.values());
  std::vector<std::vector<Value>> want = expected.rows;
  if (!expected.ordered) {
    std::sort(actual.begin(), actual.end(), RowLess);
    std::sort(want.begin(), want.end(), RowLess);
  }
  for (size_t i = 0; i < want.size(); ++i) {
    bool same = want[i].size() == actual[i].size();
    for (size_t c = 0; same && c < want[i].size(); ++c) {
      same = SameValue(want[i][c], actual[i][c]);
    }
    if (!same) {
      return "row " + std::to_string(i) + ": expected " + RowText(want[i]) +
             ", got " + RowText(actual[i]);
    }
  }
  return "";
}

std::string CompareCount(const Answer& expected, int64_t affected) {
  if (!expected.is_count) return "expected rows, got an affected-row count";
  if (affected == expected.count) return "";
  return "expected " + std::to_string(expected.count) + " affected rows, got " +
         std::to_string(affected);
}

}  // namespace perfbench
