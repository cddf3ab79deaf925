// The benchmark's dataset: generated from the seed alone, loaded into the
// engine as SQL text, and kept here as plain C++ rows so the oracle can
// compute every expected answer without going through the engine.

#ifndef PERFBENCH_MODEL_H_
#define PERFBENCH_MODEL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a fixed, portable generator, so one seed gives one dataset
/// and one statement sequence on every compiler and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

/// Money columns hold whole cents, so `%.2f` SQL literals parse back to
/// exactly the double the model holds.
inline double Cents(int64_t cents) { return static_cast<double>(cents) / 100.0; }
/// A money value as an SQL literal.
std::string Money(double v);

struct Branch {
  int64_t id, region;
  std::string name;
};
struct Product {
  int64_t id, category;
  double price;
  int64_t stock;
  std::string name;
};
struct Customer {
  int64_t id, branch, segment;
  double balance;
  std::string name;
};
struct Sale {
  int64_t id, cust, product, day, qty;
  double amount;
};

struct Sizes {
  int branches = 100;
  int products = 1000;
  int customers = 8000;
  int sales = 16000;
  int days = 360;
  int categories = 20;
  int segments = 5;
};

/// Rows of every table, indexed by primary key. Customers may be deleted
/// and inserted (oltp); sales change only in `qty` and `amount`.
struct Model {
  Sizes sizes;
  std::vector<Branch> branches;
  std::vector<Product> products;
  std::vector<std::optional<Customer>> customers;
  std::vector<Sale> sales;
  /// Secondary indexes of the model (never of the engine).
  std::vector<std::vector<int32_t>> sales_by_day;
  std::vector<std::vector<int32_t>> sales_by_product;
  std::vector<std::vector<int32_t>> sales_by_cust;
  std::vector<int64_t> cheap_products;  // price < 50: the updatable view
  /// Live customer ids, in no order, with each id's slot for O(1) removal.
  std::vector<int64_t> live_customers;
  std::vector<int64_t> live_slot;  // by id; -1 = not live

  static Model Generate(uint64_t seed, const Sizes& sizes);

  /// CREATE TABLE statements (no data).
  std::vector<std::string> SchemaSql() const;
  /// Multi-row INSERT ... VALUES statements covering every row.
  std::vector<std::string> InsertSql(size_t rows_per_statement) const;
  /// Indexes, views and statistics that follow the load.
  std::vector<std::string> IndexSql() const;
  std::vector<std::string> ViewSql() const;
  size_t TotalRows() const;

  const Customer* FindCustomer(int64_t id) const;
  void InsertCustomer(Customer c);
  void DeleteCustomer(int64_t id);
  int64_t RandomLiveCustomer(Rng& rng) const;
};

std::string CustomerName(int64_t id);

}  // namespace perfbench

#endif  // PERFBENCH_MODEL_H_
