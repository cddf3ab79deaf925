#include "workloads.h"

#include <algorithm>
#include <map>

namespace perfbench {

namespace {

using starburst::Value;

std::string Num(int64_t v) { return std::to_string(v); }

Answer Count(int64_t n) {
  Answer a;
  a.is_count = true;
  a.count = n;
  return a;
}

// ---------------------------------------------------------------------------
// oltp: prepared point reads of customers joined with branches, and rare
// single-key writes to customers. Short statements, so per-statement
// engine overhead, the B-tree and the prepared path dominate the reads;
// the writes run the engine's row-at-a-time DML scan over every customer.
// ---------------------------------------------------------------------------

class Oltp : public Workload {
 public:
  Oltp()
      : Workload("oltp", 256,
                 {{"point_read", false},
                  {"update_balance", true},
                  {"insert_customer", true},
                  {"delete_customer", true}}) {}

  std::vector<std::string> WarmSql() const override { return {read_sql_}; }

  Stmt Next(Rng& rng, Model& m) override {
    if (pending_delete_) {
      // Second half of an insert/delete pair: the customer count stays
      // fixed, so no statement gets cheaper or dearer as the run goes on.
      pending_delete_ = false;
      int64_t id = m.RandomLiveCustomer(rng);
      m.DeleteCustomer(id);
      return {3, "DELETE FROM customers WHERE id = " + Num(id), -1, {},
              Count(1)};
    }
    // A write slot every ~150 statements, so writes are 1% of them: an
    // update, or an insert/delete pair (two statements), equally often.
    int64_t roll = rng.Uniform(0, 299);
    if (roll == 0) {
      int64_t id = m.RandomLiveCustomer(rng);
      double delta = Cents(rng.Uniform(1, 99999));
      bool up = rng.Uniform(0, 1) == 0;
      auto& c = *m.customers[static_cast<size_t>(id)];
      c.balance = up ? c.balance + delta : c.balance - delta;
      return {1,
              "UPDATE customers SET balance = balance " +
                  std::string(up ? "+ " : "- ") + Money(delta) +
                  " WHERE id = " + Num(id),
              -1, {}, Count(1)};
    }
    if (roll == 1) {
      int64_t id = static_cast<int64_t>(m.customers.size());
      Customer c{id, rng.Uniform(0, m.sizes.branches - 1),
                 rng.Uniform(0, m.sizes.segments - 1),
                 Cents(rng.Uniform(0, 1000000)), CustomerName(id)};
      std::string sql = "INSERT INTO customers VALUES (" + Num(c.id) + ", " +
                        Num(c.branch) + ", " + Num(c.segment) + ", " +
                        Money(c.balance) + ", '" + c.name + "')";
      m.InsertCustomer(std::move(c));
      pending_delete_ = true;
      return {2, std::move(sql), -1, {}, Count(1)};
    }
    int64_t id = m.RandomLiveCustomer(rng);
    const Customer& c = *m.FindCustomer(id);
    const Branch& b = m.branches[static_cast<size_t>(c.branch)];
    Answer a;
    a.rows.push_back({Value::Int(c.id), Value::String(c.name),
                      Value::Double(c.balance), Value::String(b.name),
                      Value::Int(b.region)});
    return {0, read_sql_, 0, {Value::Int(id)}, std::move(a)};
  }

 private:
  const std::string read_sql_ =
      "SELECT c.id, c.name, c.balance, b.name, b.region FROM customers c, "
      "branches b WHERE c.branch = b.id AND c.id = ?";
  bool pending_delete_ = false;
};

// ---------------------------------------------------------------------------
// analytic: five read templates over sales, each with four literal
// variants of equal cost that set-up prepares, so the measured phase
// never compiles. One statement in ten is a day-range UPDATE of columns
// every template reads; consecutive updates add and then subtract the
// same delta on the same range, so costs do not drift.
// ---------------------------------------------------------------------------

class Analytic : public Workload {
 public:
  Analytic(const Model& m, uint64_t seed)
      : Workload("analytic", 4,
                 {{"filter_scan", false},
                  {"group_agg", false},
                  {"join_agg", false},
                  {"top_k", false},
                  {"in_subquery", false},
                  {"day_update", true}}) {
    Rng rng(seed ^ 0xA11A1171Cull);
    int days = m.sizes.days;
    for (int v = 0; v < kVariants; ++v) {
      // Variant v draws from the v-th quarter of the year, so the four
      // variants cover disjoint data of equal size.
      int quarter = days / kVariants;
      scan_day_[v] = v * quarter + rng.Uniform(0, quarter - 4);
      join_day_[v] = v * quarter + rng.Uniform(0, quarter - 30);
      sub_day_[v] = v * quarter + rng.Uniform(0, quarter - 1);
      sub_category_[v] = rng.Uniform(0, m.sizes.categories - 1);
      qty_[v] = v + 1;
    }
  }

  std::vector<std::string> WarmSql() const override {
    std::vector<std::string> out;
    for (int t = 0; t < 5; ++t) {
      for (int v = 0; v < kVariants; ++v) out.push_back(ReadSql(t, v));
    }
    return out;
  }

  Stmt Next(Rng& rng, Model& m) override {
    if (rng.Uniform(0, 9) == 0) return Update(rng, m);
    int t = static_cast<int>(rng.Uniform(0, 4));
    int v = static_cast<int>(rng.Uniform(0, kVariants - 1));
    return {t, ReadSql(t, v), -1, {}, Expect(t, v, m)};
  }

 private:
  static constexpr int kVariants = 4;

  std::string ReadSql(int t, int v) const {
    switch (t) {
      case 0:
        return "SELECT id, cust, qty, amount FROM sales WHERE day BETWEEN " +
               Num(scan_day_[v]) + " AND " + Num(scan_day_[v] + 3) +
               " AND qty > 5";
      case 1:
        return "SELECT product, COUNT(*), SUM(qty), SUM(amount) FROM sales "
               "WHERE qty <> " +
               Num(qty_[v]) + " GROUP BY product";
      case 2:
        return "SELECT c.segment, COUNT(*), SUM(s.amount) FROM sales s, "
               "customers c WHERE s.cust = c.id AND s.day BETWEEN " +
               Num(join_day_[v]) + " AND " + Num(join_day_[v] + 29) +
               " GROUP BY c.segment";
      case 3:
        return "SELECT id, cust, amount FROM sales WHERE day BETWEEN " +
               Num(join_day_[v]) + " AND " + Num(join_day_[v] + 29) +
               " ORDER BY amount DESC, id LIMIT 10";
      default:
        // The paper's section 4 query shape: a correlated IN subquery.
        return "SELECT s.id, s.qty, s.amount FROM sales s WHERE s.day = " +
               Num(sub_day_[v]) +
               " AND s.product IN (SELECT p.id FROM products p WHERE "
               "p.category = " +
               Num(sub_category_[v]) + " AND p.stock < s.qty * 10)";
    }
  }

  Answer Expect(int t, int v, const Model& m) const {
    Answer a;
    switch (t) {
      case 0:
        for (int64_t d = scan_day_[v]; d <= scan_day_[v] + 3; ++d) {
          for (int32_t id : m.sales_by_day[static_cast<size_t>(d)]) {
            const Sale& s = m.sales[static_cast<size_t>(id)];
            if (s.qty > 5) {
              a.rows.push_back({Value::Int(s.id), Value::Int(s.cust),
                                Value::Int(s.qty), Value::Double(s.amount)});
            }
          }
        }
        break;
      case 1: {
        struct Acc {
          int64_t n = 0, qty = 0;
          double amount = 0;
        };
        std::vector<Acc> acc(m.products.size());
        for (const Sale& s : m.sales) {
          if (s.qty == qty_[v]) continue;
          Acc& g = acc[static_cast<size_t>(s.product)];
          ++g.n;
          g.qty += s.qty;
          g.amount += s.amount;
        }
        for (size_t p = 0; p < acc.size(); ++p) {
          if (acc[p].n == 0) continue;
          a.rows.push_back({Value::Int(static_cast<int64_t>(p)),
                            Value::Int(acc[p].n), Value::Int(acc[p].qty),
                            Value::Double(acc[p].amount)});
        }
        break;
      }
      case 2: {
        std::map<int64_t, std::pair<int64_t, double>> seg;
        for (int64_t d = join_day_[v]; d <= join_day_[v] + 29; ++d) {
          for (int32_t id : m.sales_by_day[static_cast<size_t>(d)]) {
            const Sale& s = m.sales[static_cast<size_t>(id)];
            const Customer* c = m.FindCustomer(s.cust);
            if (c == nullptr) continue;
            auto& g = seg[c->segment];
            ++g.first;
            g.second += s.amount;
          }
        }
        for (const auto& [segment, g] : seg) {
          a.rows.push_back({Value::Int(segment), Value::Int(g.first),
                            Value::Double(g.second)});
        }
        break;
      }
      case 3: {
        std::vector<const Sale*> rows;
        for (int64_t d = join_day_[v]; d <= join_day_[v] + 29; ++d) {
          for (int32_t id : m.sales_by_day[static_cast<size_t>(d)]) {
            rows.push_back(&m.sales[static_cast<size_t>(id)]);
          }
        }
        size_t k = std::min<size_t>(10, rows.size());
        std::partial_sort(rows.begin(), rows.begin() + static_cast<long>(k),
                          rows.end(), [](const Sale* x, const Sale* y) {
                            if (x->amount != y->amount) {
                              return x->amount > y->amount;
                            }
                            return x->id < y->id;
                          });
        for (size_t i = 0; i < k; ++i) {
          a.rows.push_back({Value::Int(rows[i]->id), Value::Int(rows[i]->cust),
                            Value::Double(rows[i]->amount)});
        }
        a.ordered = true;
        break;
      }
      default:
        for (int32_t id : m.sales_by_day[static_cast<size_t>(sub_day_[v])]) {
          const Sale& s = m.sales[static_cast<size_t>(id)];
          const Product& p = m.products[static_cast<size_t>(s.product)];
          if (p.category == sub_category_[v] && p.stock < s.qty * 10) {
            a.rows.push_back({Value::Int(s.id), Value::Int(s.qty),
                              Value::Double(s.amount)});
          }
        }
        break;
    }
    return a;
  }

  Stmt Update(Rng& rng, Model& m) {
    bool revert = pending_day_ >= 0;
    int64_t day =
        revert ? pending_day_ : rng.Uniform(0, m.sizes.days - 2);
    pending_day_ = revert ? -1 : day;
    int64_t affected = 0;
    for (int64_t d = day; d <= day + 1; ++d) {
      for (int32_t id : m.sales_by_day[static_cast<size_t>(d)]) {
        Sale& s = m.sales[static_cast<size_t>(id)];
        s.amount = revert ? s.amount - 0.25 : s.amount + 0.25;
        s.qty += revert ? -1 : 1;
        ++affected;
      }
    }
    const char* op = revert ? " - " : " + ";
    return {5,
            std::string("UPDATE sales SET amount = amount") + op +
                "0.25, qty = qty" + op + "1 WHERE day BETWEEN " + Num(day) +
                " AND " + Num(day + 1),
            -1, {}, Count(affected)};
  }

  int64_t scan_day_[kVariants], join_day_[kVariants], sub_day_[kVariants];
  int64_t sub_category_[kVariants], qty_[kVariants];
  int64_t pending_day_ = -1;
};

// ---------------------------------------------------------------------------
// adhoc: SELECTs whose literals never repeat, so every one misses the plan
// cache and runs the whole compile half: key joins of up to six tables,
// a join view that rewrite merges, IN and EXISTS subqueries for the
// subquery rules, and a GROUP BY whose predicate migrates into its input.
// Every table is reached through a literal key, so execution stays small
// and compile dominates. Writes are single-key UPDATEs through the
// updatable view over the small products table, so their compile
// dominates too.
// ---------------------------------------------------------------------------

class Adhoc : public Workload {
 public:
  Adhoc()
      : Workload("adhoc", 32,
                 {{"view_join4", false},
                  {"key_join6", false},
                  {"in_view", false},
                  {"exists", false},
                  {"group_pushdown", false},
                  {"view_update", true}}) {}

  std::vector<std::string> WarmSql() const override { return {}; }

  Stmt Next(Rng& rng, Model& m) override {
    if (rng.Uniform(0, 9) == 0) return ViewUpdate(rng, m);
    // Anchor every read on a random sale, so it finds rows.
    const Sale& s = RandomSale(rng, m);
    const Customer& c = *m.FindCustomer(s.cust);
    const Branch& b = m.branches[static_cast<size_t>(c.branch)];
    Stmt st;
    st.tmpl = static_cast<int>(rng.Uniform(0, 4));
    Answer& a = st.expected;
    switch (st.tmpl) {
      case 0: {
        const Product& p = m.products[static_cast<size_t>(s.product)];
        st.sql =
            "SELECT v.name, v.bname, s.id, s.amount, p.name FROM cust_branch "
            "v, sales s, products p WHERE v.id = " +
            Num(c.id) + " AND p.id = " + Num(p.id) +
            " AND s.cust = v.id AND s.product = p.id";
        for (int32_t id : m.sales_by_cust[static_cast<size_t>(c.id)]) {
          const Sale& x = m.sales[static_cast<size_t>(id)];
          if (x.product != p.id) continue;
          a.rows.push_back({Value::String(c.name), Value::String(b.name),
                            Value::Int(x.id), Value::Double(x.amount),
                            Value::String(p.name)});
        }
        break;
      }
      case 1: {
        const auto& peers = m.sales_by_product[static_cast<size_t>(s.product)];
        const Sale& s2 = m.sales[static_cast<size_t>(peers[static_cast<size_t>(
            rng.Uniform(0, static_cast<int64_t>(peers.size()) - 1))])];
        const Customer& c2 = *m.FindCustomer(s2.cust);
        const Branch& b2 = m.branches[static_cast<size_t>(c2.branch)];
        st.sql =
            "SELECT s1.id, s2.id, c1.name, c2.name, b1.name, b2.name FROM "
            "sales s1, customers c1, branches b1, sales s2, customers c2, "
            "branches b2 WHERE s1.id = " +
            Num(s.id) + " AND c1.id = " + Num(c.id) + " AND b1.id = " +
            Num(b.id) + " AND s2.id = " + Num(s2.id) + " AND c2.id = " +
            Num(c2.id) + " AND b2.id = " + Num(b2.id) +
            " AND s1.cust = c1.id AND c1.branch = b1.id AND s2.cust = c2.id "
            "AND c2.branch = b2.id AND s2.product = s1.product";
        a.rows.push_back({Value::Int(s.id), Value::Int(s2.id),
                          Value::String(c.name), Value::String(c2.name),
                          Value::String(b.name), Value::String(b2.name)});
        break;
      }
      case 2: {
        // The branch is drawn from the customer's region half the time,
        // so the IN predicate both passes and fails.
        int64_t other = rng.Uniform(0, 1) == 0
                            ? b.id
                            : rng.Uniform(0, m.sizes.branches - 1);
        st.sql =
            "SELECT v.id, v.name, v.bname FROM cust_branch v WHERE v.id = " +
            Num(c.id) +
            " AND v.region IN (SELECT b.region FROM branches b WHERE b.id = " +
            Num(other) + ")";
        if (m.branches[static_cast<size_t>(other)].region == b.region) {
          a.rows.push_back({Value::Int(c.id), Value::String(c.name),
                            Value::String(b.name)});
        }
        break;
      }
      case 3: {
        int64_t region = rng.Uniform(0, 1) == 0 ? b.region : rng.Uniform(0, 9);
        st.sql =
            "SELECT b.id, b.name FROM branches b WHERE b.region = " +
            Num(region) +
            " AND EXISTS (SELECT c.id FROM customers c WHERE c.id = " +
            Num(c.id) + " AND c.branch = b.id)";
        if (region == b.region) {
          a.rows.push_back({Value::Int(b.id), Value::String(b.name)});
        }
        break;
      }
      default: {
        st.sql =
            "SELECT t.cust, t.n, t.total FROM (SELECT cust, COUNT(*) AS n, "
            "SUM(amount) AS total FROM sales GROUP BY cust) t WHERE t.cust = " +
            Num(c.id);
        int64_t n = 0;
        double total = 0;
        for (int32_t id : m.sales_by_cust[static_cast<size_t>(c.id)]) {
          ++n;
          total += m.sales[static_cast<size_t>(id)].amount;
        }
        a.rows.push_back({Value::Int(c.id), Value::Int(n), Value::Double(total)});
        break;
      }
    }
    return st;
  }

 private:
  static const Sale& RandomSale(Rng& rng, const Model& m) {
    return m.sales[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(m.sales.size()) - 1))];
  }

  Stmt ViewUpdate(Rng& rng, Model& m) {
    int64_t id = m.cheap_products[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(m.cheap_products.size()) - 1))];
    Product& p = m.products[static_cast<size_t>(id)];
    int64_t delta = rng.Uniform(1, 9);
    // Keep stock within its generated range whichever way it moves.
    bool up = p.stock < 250;
    p.stock += up ? delta : -delta;
    return {5,
            "UPDATE cheap_products SET stock = stock " +
                std::string(up ? "+ " : "- ") + Num(delta) +
                " WHERE id = " + Num(id),
            -1, {}, Count(1)};
  }
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const Model& model, uint64_t seed) {
  if (name == "oltp") return std::make_unique<Oltp>();
  if (name == "analytic") return std::make_unique<Analytic>(model, seed);
  if (name == "adhoc") return std::make_unique<Adhoc>();
  return nullptr;
}

}  // namespace perfbench
