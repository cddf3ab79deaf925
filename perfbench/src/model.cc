#include "model.h"

#include <cstdio>

namespace perfbench {

namespace {

std::string Fmt(const char* pattern, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, pattern, static_cast<long long>(v));
  return buf;
}

}  // namespace

std::string Money(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.2f", v);
  return buf;
}

std::string CustomerName(int64_t id) { return Fmt("customer-%07lld", id); }

Model Model::Generate(uint64_t seed, const Sizes& sizes) {
  Rng rng(seed ^ 0x5EEDDA7A5E7ull);
  Model m;
  m.sizes = sizes;
  for (int64_t id = 0; id < sizes.branches; ++id) {
    m.branches.push_back({id, id % 10, Fmt("branch-%03lld", id)});
  }
  for (int64_t id = 0; id < sizes.products; ++id) {
    Product p{id, rng.Uniform(0, sizes.categories - 1),
              Cents(rng.Uniform(100, 9999)), rng.Uniform(0, 500),
              Fmt("product-%04lld", id)};
    if (p.price < 50) m.cheap_products.push_back(id);
    m.products.push_back(std::move(p));
  }
  for (int64_t id = 0; id < sizes.customers; ++id) {
    m.InsertCustomer({id, rng.Uniform(0, sizes.branches - 1),
                      rng.Uniform(0, sizes.segments - 1),
                      Cents(rng.Uniform(0, 1000000)), CustomerName(id)});
  }
  m.sales_by_day.resize(sizes.days);
  m.sales_by_product.resize(sizes.products);
  m.sales_by_cust.resize(sizes.customers);
  for (int64_t id = 0; id < sizes.sales; ++id) {
    Sale s{id,
           rng.Uniform(0, sizes.customers - 1),
           rng.Uniform(0, sizes.products - 1),
           rng.Uniform(0, sizes.days - 1),
           rng.Uniform(1, 10),
           Cents(rng.Uniform(100, 50000))};
    m.sales_by_day[s.day].push_back(static_cast<int32_t>(id));
    m.sales_by_product[s.product].push_back(static_cast<int32_t>(id));
    m.sales_by_cust[s.cust].push_back(static_cast<int32_t>(id));
    m.sales.push_back(s);
  }
  return m;
}

std::vector<std::string> Model::SchemaSql() const {
  return {
      "CREATE TABLE branches (id INT PRIMARY KEY, region INT NOT NULL, "
      "name STRING NOT NULL)",
      "CREATE TABLE products (id INT PRIMARY KEY, category INT NOT NULL, "
      "price DOUBLE NOT NULL, stock INT NOT NULL, name STRING NOT NULL)",
      "CREATE TABLE customers (id INT PRIMARY KEY, branch INT NOT NULL, "
      "segment INT NOT NULL, balance DOUBLE NOT NULL, name STRING NOT NULL)",
      "CREATE TABLE sales (id INT PRIMARY KEY, cust INT NOT NULL, "
      "product INT NOT NULL, day INT NOT NULL, qty INT NOT NULL, "
      "amount DOUBLE NOT NULL)",
  };
}

std::vector<std::string> Model::InsertSql(size_t rows_per_statement) const {
  std::vector<std::string> out;
  std::string sql;
  size_t in_statement = 0;
  auto add = [&](const char* table, const std::string& tuple) {
    if (in_statement == 0) {
      sql = std::string("INSERT INTO ") + table + " VALUES ";
    } else {
      sql += ", ";
    }
    sql += tuple;
    if (++in_statement == rows_per_statement) {
      out.push_back(std::move(sql));
      in_statement = 0;
    }
  };
  auto flush = [&] {
    if (in_statement > 0) out.push_back(std::move(sql));
    in_statement = 0;
  };
  for (const Branch& b : branches) {
    add("branches", "(" + std::to_string(b.id) + ", " +
                        std::to_string(b.region) + ", '" + b.name + "')");
  }
  flush();
  for (const Product& p : products) {
    add("products", "(" + std::to_string(p.id) + ", " +
                        std::to_string(p.category) + ", " + Money(p.price) +
                        ", " + std::to_string(p.stock) + ", '" + p.name + "')");
  }
  flush();
  for (const auto& c : customers) {
    add("customers", "(" + std::to_string(c->id) + ", " +
                         std::to_string(c->branch) + ", " +
                         std::to_string(c->segment) + ", " +
                         Money(c->balance) + ", '" + c->name + "')");
  }
  flush();
  for (const Sale& s : sales) {
    add("sales", "(" + std::to_string(s.id) + ", " + std::to_string(s.cust) +
                     ", " + std::to_string(s.product) + ", " +
                     std::to_string(s.day) + ", " + std::to_string(s.qty) +
                     ", " + Money(s.amount) + ")");
  }
  flush();
  return out;
}

std::vector<std::string> Model::IndexSql() const {
  return {"CREATE INDEX sales_cust ON sales (cust)"};
}

std::vector<std::string> Model::ViewSql() const {
  return {
      // A join view: adhoc queries merge it into their own SELECT box.
      "CREATE VIEW cust_branch (id, name, balance, region, bname) AS "
      "SELECT c.id, c.name, c.balance, b.region, b.name FROM customers c, "
      "branches b WHERE c.branch = b.id",
      // A single-table view the paper's section 2 lets DML go through.
      "CREATE VIEW cheap_products AS SELECT id, category, price, stock "
      "FROM products WHERE price < 50",
  };
}

size_t Model::TotalRows() const {
  return branches.size() + products.size() + live_customers.size() +
         sales.size();
}

const Customer* Model::FindCustomer(int64_t id) const {
  if (id < 0 || id >= static_cast<int64_t>(customers.size())) return nullptr;
  const auto& c = customers[static_cast<size_t>(id)];
  return c.has_value() ? &*c : nullptr;
}

void Model::InsertCustomer(Customer c) {
  auto id = static_cast<size_t>(c.id);
  if (customers.size() <= id) {
    customers.resize(id + 1);
    live_slot.resize(id + 1, -1);
  }
  live_slot[id] = static_cast<int64_t>(live_customers.size());
  live_customers.push_back(c.id);
  customers[id] = std::move(c);
}

void Model::DeleteCustomer(int64_t id) {
  auto slot = static_cast<size_t>(live_slot[static_cast<size_t>(id)]);
  int64_t moved = live_customers.back();
  live_customers[slot] = moved;
  live_slot[static_cast<size_t>(moved)] = static_cast<int64_t>(slot);
  live_customers.pop_back();
  live_slot[static_cast<size_t>(id)] = -1;
  customers[static_cast<size_t>(id)].reset();
}

int64_t Model::RandomLiveCustomer(Rng& rng) const {
  return live_customers[static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(live_customers.size()) - 1))];
}

}  // namespace perfbench
