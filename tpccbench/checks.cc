#include "tpccbench/checks.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/random.h"

namespace tpccbench {

using phoebe::OpContext;
using phoebe::RowId;
using phoebe::RowView;
using phoebe::Slice;
using phoebe::Table;
using phoebe::Transaction;
using phoebe::Value;
namespace tpcc = phoebe::tpcc;

namespace {

/// One read-only transaction on an aux slot; aborted (not committed) so the
/// check itself appends nothing to the log.
class ReadTxn {
 public:
  ReadTxn(Database* db, uint32_t slot) : db_(db) {
    ctx_.synchronous = true;
    ctx_.count_accesses = false;
    txn_ = db_->Begin(slot);
  }
  ~ReadTxn() { (void)db_->Abort(&ctx_, txn_); }
  ReadTxn(const ReadTxn&) = delete;
  ReadTxn& operator=(const ReadTxn&) = delete;

  OpContext* ctx() { return &ctx_; }
  Transaction* txn() { return txn_; }

 private:
  Database* db_;
  OpContext ctx_;
  Transaction* txn_;
};

std::vector<Table*> TableList(const tpcc::Tables& t) {
  return {t.warehouse, t.district, t.customer, t.history, t.new_order,
          t.order,     t.order_line, t.item,   t.stock};
}

/// Money is compared in cents: a sum of doubles holding whole cents is off
/// by far less than half a cent at these magnitudes.
int64_t Cents(double v) { return std::llround(v * 100.0); }

std::string Fmt(const char* fmt, long long a, long long b) {
  char buf[256];
  snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

const char* TableName(size_t i) {
  static const char* kNames[kNumTables] = {
      "warehouse", "district", "customer", "history", "new_order",
      "order",     "order_line", "item",   "stock"};
  return i < kNumTables ? kNames[i] : "?";
}

}  // namespace

bool Digest::operator==(const Digest& o) const {
  return rows == o.rows && sum_next_o_id_minus_1 == o.sum_next_o_id_minus_1 &&
         sum_s_quantity == o.sum_s_quantity && sum_w_ytd == o.sum_w_ytd &&
         sum_d_ytd == o.sum_d_ytd && sum_c_balance == o.sum_c_balance &&
         live_row_bytes == o.live_row_bytes;
}

std::string Digest::ToString() const {
  std::string out;
  char buf[160];
  for (size_t i = 0; i < kNumTables; ++i) {
    snprintf(buf, sizeof(buf), "%s=%llu ", TableName(i),
             static_cast<unsigned long long>(rows[i]));
    out += buf;
  }
  snprintf(buf, sizeof(buf),
           "orders_entered=%lld s_quantity=%lld w_ytd=%.2f d_ytd=%.2f "
           "c_balance=%.2f live_bytes=%llu",
           static_cast<long long>(sum_next_o_id_minus_1),
           static_cast<long long>(sum_s_quantity), sum_w_ytd, sum_d_ytd,
           sum_c_balance, static_cast<unsigned long long>(live_row_bytes));
  return out + buf;
}

Status ComputeDigest(Database* db, const tpcc::Tables& t, uint32_t slot,
                     Digest* out) {
  *out = Digest();
  ReadTxn rt(db, slot);
  std::vector<Table*> tables = TableList(t);
  for (size_t i = 0; i < kNumTables; ++i) {
    Table* table = tables[i];
    const phoebe::Schema* schema = &table->schema();
    Status st = table->ScanAllVisible(
        rt.ctx(), rt.txn(), [&](RowId, const std::string& row) {
          out->rows[i] += 1;
          out->live_row_bytes += row.size();
          RowView v(schema, row.data());
          switch (i) {
            case kWarehouse:
              out->sum_w_ytd += v.GetDouble(tpcc::Warehouse::kYtd);
              break;
            case kDistrict:
              out->sum_d_ytd += v.GetDouble(tpcc::District::kYtd);
              out->sum_next_o_id_minus_1 +=
                  v.GetInt32(tpcc::District::kNextOId) - 1;
              break;
            case kCustomer:
              out->sum_c_balance += v.GetDouble(tpcc::Customer::kBalance);
              break;
            case kStock:
              out->sum_s_quantity += v.GetInt32(tpcc::Stock::kQuantity);
              break;
            default:
              break;
          }
          return true;
        });
    if (!st.ok()) {
      return Status::Corruption(std::string("digest scan of ") + TableName(i) +
                                ": " + st.ToString());
    }
  }
  return Status::OK();
}

Status CheckNewOrderConservation(const Digest& before, const Digest& after,
                                 const Acks& acks, int64_t loaded_orders) {
  if (before.sum_next_o_id_minus_1 != loaded_orders ||
      static_cast<int64_t>(before.rows[kOrder]) != loaded_orders) {
    return Status::Corruption(
        Fmt("neworder conservation: loaded %lld orders, found %lld",
            loaded_orders, before.sum_next_o_id_minus_1));
  }
  const long long acked = static_cast<long long>(acks.new_orders);
  long long entered =
      after.sum_next_o_id_minus_1 - before.sum_next_o_id_minus_1;
  if (entered != acked) {
    return Status::Corruption(
        Fmt("neworder conservation: sum(D_NEXT_O_ID-1) rose by %lld, "
            "%lld NewOrders acknowledged",
            entered, acked));
  }
  long long orders = static_cast<long long>(after.rows[kOrder]) -
                     static_cast<long long>(before.rows[kOrder]);
  if (orders != acked) {
    return Status::Corruption(
        Fmt("neworder conservation: ORDER rows rose by %lld, %lld NewOrders "
            "acknowledged",
            orders, acked));
  }
  long long lines = static_cast<long long>(after.rows[kOrderLine]) -
                    static_cast<long long>(before.rows[kOrderLine]);
  if (lines != static_cast<long long>(acks.order_lines)) {
    return Status::Corruption(
        Fmt("neworder conservation: ORDER_LINE rows rose by %lld, %lld "
            "lines acknowledged",
            lines, static_cast<long long>(acks.order_lines)));
  }
  return Status::OK();
}

Status CheckMoneyConservation(const Digest& before, const Digest& after,
                              const Acks& acks) {
  const long long paid = static_cast<long long>(acks.payment_cents);
  long long w = Cents(after.sum_w_ytd) - Cents(before.sum_w_ytd);
  if (w != paid) {
    return Status::Corruption(Fmt(
        "money conservation: sum(W_YTD) rose by %lld cents, %lld paid", w,
        paid));
  }
  long long d = Cents(after.sum_d_ytd) - Cents(before.sum_d_ytd);
  if (d != paid) {
    return Status::Corruption(Fmt(
        "money conservation: sum(D_YTD) rose by %lld cents, %lld paid", d,
        paid));
  }
  long long h = static_cast<long long>(after.rows[kHistory]) -
                static_cast<long long>(before.rows[kHistory]);
  if (h != static_cast<long long>(acks.payments)) {
    return Status::Corruption(
        Fmt("money conservation: HISTORY rows rose by %lld, %lld Payments "
            "acknowledged",
            h, static_cast<long long>(acks.payments)));
  }
  return Status::OK();
}

Status CheckDigestUnchanged(const Digest& before, const Digest& after) {
  if (before == after) return Status::OK();
  return Status::Corruption("read-only digest changed: before {" +
                            before.ToString() + "} after {" +
                            after.ToString() + "}");
}

Status ScanForProbe(Database* db, const tpcc::Tables& t, uint32_t slot,
                    ScanImage* out) {
  *out = ScanImage();
  ReadTxn rt(db, slot);
  const phoebe::Schema* ss = &t.stock->schema();
  Status st = t.stock->ScanAllVisible(
      rt.ctx(), rt.txn(), [&](RowId, const std::string& row) {
        RowView v(ss, row.data());
        out->stock[{v.GetInt32(tpcc::Stock::kWId),
                    v.GetInt32(tpcc::Stock::kIId)}] = row;
        return true;
      });
  if (!st.ok()) return st;
  // Full scans return row-id order; order lines are re-sorted by number
  // so they compare against the primary-key order of an index scan.
  const phoebe::Schema* ols = &t.order_line->schema();
  std::map<std::tuple<int32_t, int32_t, int32_t>,
           std::map<int32_t, std::string>>
      by_order;
  st = t.order_line->ScanAllVisible(
      rt.ctx(), rt.txn(), [&](RowId, const std::string& row) {
        RowView v(ols, row.data());
        by_order[{v.GetInt32(tpcc::OrderLine::kWId),
                  v.GetInt32(tpcc::OrderLine::kDId),
                  v.GetInt32(tpcc::OrderLine::kOId)}]
                [v.GetInt32(tpcc::OrderLine::kNumber)] = row;
        return true;
      });
  if (!st.ok()) return st;
  for (auto& [key, lines] : by_order) {
    std::vector<std::string>& dst = out->order_lines[key];
    for (auto& [num, row] : lines) dst.push_back(std::move(row));
  }
  return Status::OK();
}

Status CheckIndexMatchesScan(Database* db, const tpcc::Tables& t,
                             uint32_t slot, const ScanImage& image,
                             uint64_t seed, int order_samples) {
  constexpr size_t kProbesPerTxn = 1024;  // bounds the scratch arena
  std::vector<Value> key;
  size_t n = 0;
  auto it = image.stock.begin();
  int32_t max_i_id = 0;
  while (it != image.stock.end()) {
    ReadTxn rt(db, slot);
    for (size_t k = 0; k < kProbesPerTxn && it != image.stock.end();
         ++k, ++it, ++n) {
      key = {Value::Int32(it->first.first), Value::Int32(it->first.second)};
      max_i_id = std::max(max_i_id, it->first.second);
      RowId rid = 0;
      Slice row;
      Status st = t.stock->IndexGetRef(rt.ctx(), rt.txn(),
                                       phoebe::tpcc::Tables::kPk, key, &rid,
                                       &row);
      if (!st.ok() || row.ToString() != it->second) {
        return Status::Corruption(
            Fmt("index vs scan: STOCK (%lld,%lld) differs",
                it->first.first, it->first.second) +
            (st.ok() ? "" : ": " + st.ToString()));
      }
    }
  }
  if (n == 0) return Status::Corruption("index vs scan: STOCK scan empty");
  {
    ReadTxn rt(db, slot);
    key = {Value::Int32(1), Value::Int32(max_i_id + 1)};
    RowId rid = 0;
    Slice row;
    Status st = t.stock->IndexGetRef(rt.ctx(), rt.txn(),
                                     phoebe::tpcc::Tables::kPk, key, &rid,
                                     &row);
    if (!st.IsNotFound()) {
      return Status::Corruption("index vs scan: STOCK probe past the last "
                                "item did not report NotFound");
    }
  }

  if (image.order_lines.empty()) {
    return Status::Corruption("index vs scan: ORDER_LINE scan empty");
  }
  std::vector<std::tuple<int32_t, int32_t, int32_t>> orders;
  orders.reserve(image.order_lines.size());
  for (const auto& entry : image.order_lines) orders.push_back(entry.first);
  phoebe::Random rng(seed);
  for (int s = 0; s < order_samples;) {
    ReadTxn rt(db, slot);
    for (int k = 0; k < 64 && s < order_samples; ++k, ++s) {
      const auto& o = orders[rng.Uniform(orders.size())];
      key = {Value::Int32(std::get<0>(o)), Value::Int32(std::get<1>(o)),
             Value::Int32(std::get<2>(o))};
      std::vector<std::string> got;
      Status st = t.order_line->IndexScanRef(
          rt.ctx(), rt.txn(), phoebe::tpcc::Tables::kPk, key, {},
          [&](RowId, Slice row) {
            got.push_back(row.ToString());
            return true;
          });
      if (!st.ok() || got != image.order_lines.at(o)) {
        return Status::Corruption(
            Fmt("index vs scan: ORDER_LINE prefix (w=%lld,d=%lld) differs",
                std::get<0>(o), std::get<1>(o)) +
            (st.ok() ? "" : ": " + st.ToString()));
      }
    }
  }
  return Status::OK();
}

}  // namespace tpccbench
