// Negative tests of the benchmark's correctness checks: each check must pass
// on the true outcome and fail when one acknowledgement, one cent, one row
// or one committed write is off. Runs against a small TPC-C database in the
// directory given as the only argument (removed afterwards).
//
//   checks_test <data-dir>      (or: python3 tpccbench/run.py --self-test)

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "core/database.h"
#include "io/env.h"
#include "runtime/scheduler.h"
#include "tpcc/tpcc_driver.h"
#include "tpcc/tpcc_loader.h"
#include "tpcc/tpcc_txns.h"
#include "tpccbench/checks.h"

namespace tpccbench {
namespace {

namespace tpcc = phoebe::tpcc;
using phoebe::Status;

int g_failures = 0;

void Expect(bool cond, const char* what) {
  printf("%s %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++g_failures;
}

/// The small database plus a synchronous task environment to run the
/// public TPC-C procedures on one aux slot.
struct Fixture {
  std::unique_ptr<Database> db;
  tpcc::Workload w;
  phoebe::TaskEnv env;
  int64_t loaded_orders = 0;

  Status Open(const std::string& dir) {
    phoebe::DatabaseOptions opts;
    opts.path = dir;
    opts.workers = 1;
    opts.slots_per_worker = 1;
    opts.aux_slots = 4;
    opts.wal_sync = false;
    opts.buffer_bytes = 64ull << 20;
    auto opened = Database::Open(opts);
    if (!opened.ok()) return opened.status();
    db = std::move(opened.value());
    tpcc::ScaleConfig scale;
    scale.warehouses = 1;
    scale.customers_per_district = 30;
    scale.items = 200;
    scale.initial_orders_per_district = 30;
    scale.undelivered_tail = 9;
    scale.load_threads = 1;
    auto tables = tpcc::LoadTpcc(db.get(), scale);
    if (!tables.ok()) return tables.status();
    w.db = db.get();
    w.tables = tables.value();
    w.scale = scale;
    w.last_abort_user.assign(db->options().total_slots(), 0);
    env.global_slot_id = db->aux_slot(1);
    env.ctx.synchronous = true;
    loaded_orders = static_cast<int64_t>(scale.districts_per_warehouse) *
                    scale.initial_orders_per_district;
    return Status::OK();
  }

  Digest Snap() {
    Digest d;
    Status st = ComputeDigest(db.get(), w.tables, db->aux_slot(0), &d);
    Expect(st.ok(), "digest scan succeeds");
    return d;
  }
};

void TestNewOrderConservation(Fixture* f, tpcc::TpccRandom* rnd) {
  Digest before = f->Snap();
  Acks acks;
  for (int i = 0; i < 5; ++i) {
    tpcc::NewOrderParams p = tpcc::MakeNewOrderParams(rnd, f->w.scale, 1);
    if (p.rollback) continue;
    Status st =
        tpcc::NewOrderTxn(&f->w, &f->env, p).RunToCompletion();
    if (st.ok()) {
      acks.new_orders += 1;
      acks.order_lines += static_cast<uint64_t>(p.ol_cnt);
    }
  }
  Digest after = f->Snap();
  Expect(acks.new_orders > 0, "neworder: some NewOrders committed");
  Expect(CheckNewOrderConservation(before, after, acks, f->loaded_orders).ok(),
         "neworder: passes on the acknowledged count");
  Acks fewer = acks;
  fewer.new_orders -= 1;
  Expect(!CheckNewOrderConservation(before, after, fewer, f->loaded_orders)
              .ok(),
         "neworder: fails when one commit was not acknowledged");
  Acks lines = acks;
  lines.order_lines += 1;
  Expect(!CheckNewOrderConservation(before, after, lines, f->loaded_orders)
              .ok(),
         "neworder: fails when the order lines are off by one");
  Expect(!CheckNewOrderConservation(before, after, acks, f->loaded_orders + 1)
              .ok(),
         "neworder: fails when the loaded orders are miscounted");
}

void TestMoneyConservation(Fixture* f, tpcc::TpccRandom* rnd) {
  Digest before = f->Snap();
  Acks acks;
  for (int i = 0; i < 4; ++i) {
    tpcc::PaymentParams p = tpcc::MakePaymentParams(rnd, f->w.scale, 1);
    Status st = tpcc::PaymentTxn(&f->w, &f->env, p).RunToCompletion();
    if (st.ok()) {
      acks.payments += 1;
      acks.payment_cents += std::llround(p.amount * 100.0);
    }
  }
  Digest after = f->Snap();
  Expect(acks.payments > 0, "money: some Payments committed");
  Expect(CheckMoneyConservation(before, after, acks).ok(),
         "money: passes on the acknowledged amounts");
  Acks cent = acks;
  cent.payment_cents += 1;
  Expect(!CheckMoneyConservation(before, after, cent).ok(),
         "money: fails one cent off");
  Acks fewer = acks;
  fewer.payments -= 1;
  Expect(!CheckMoneyConservation(before, after, fewer).ok(),
         "money: fails when one Payment was not acknowledged");
}

void TestDigest(Fixture* f, tpcc::TpccRandom* rnd) {
  Digest before = f->Snap();
  for (int i = 0; i < 4; ++i) {
    Status st = tpcc::OrderStatusTxn(
                    &f->w, &f->env,
                    tpcc::MakeOrderStatusParams(rnd, f->w.scale, 1))
                    .RunToCompletion();
    Expect(st.ok(), "digest: OrderStatus commits");
    st = tpcc::StockLevelTxn(&f->w, &f->env,
                             tpcc::MakeStockLevelParams(rnd, 1))
             .RunToCompletion();
    Expect(st.ok(), "digest: StockLevel commits");
  }
  Digest same = f->Snap();
  Expect(CheckDigestUnchanged(before, same).ok(),
         "digest: unchanged by read-only transactions");
  Status st = tpcc::PaymentTxn(&f->w, &f->env,
                               tpcc::MakePaymentParams(rnd, f->w.scale, 1))
                  .RunToCompletion();
  Expect(st.ok(), "digest: a Payment commits");
  Expect(!CheckDigestUnchanged(before, f->Snap()).ok(),
         "digest: fails after one Payment");
}

void TestIndexVsScan(Fixture* f) {
  ScanImage image;
  Expect(ScanForProbe(f->db.get(), f->w.tables, f->db->aux_slot(0), &image)
             .ok(),
         "index vs scan: full scans succeed");
  Expect(CheckIndexMatchesScan(f->db.get(), f->w.tables, f->db->aux_slot(0),
                               image, 7, 200)
             .ok(),
         "index vs scan: passes on the scanned rows");

  ScanImage short_line = image;
  short_line.order_lines.begin()->second.pop_back();
  // Every order is probed when the samples far outnumber the orders.
  Expect(!CheckIndexMatchesScan(f->db.get(), f->w.tables, f->db->aux_slot(0),
                                short_line, 7, 20000)
              .ok(),
         "index vs scan: fails when one order line is missing");

  // Commit one STOCK write the image does not have.
  phoebe::OpContext ctx;
  ctx.synchronous = true;
  phoebe::Transaction* txn = f->db->Begin(f->db->aux_slot(2));
  phoebe::RowId rid = 0;
  phoebe::Slice row;
  Status st = f->w.tables.stock->IndexGetRef(
      &ctx, txn, tpcc::Tables::kPk,
      {phoebe::Value::Int32(1), phoebe::Value::Int32(1)}, &rid, &row);
  if (st.ok()) {
    st = f->w.tables.stock->Update(
        &ctx, txn, rid,
        {{tpcc::Stock::kQuantity, phoebe::Value::Int32(12345)}});
  }
  if (st.ok()) st = f->db->Commit(&ctx, txn);
  else (void)f->db->Abort(&ctx, txn);
  Expect(st.ok(), "index vs scan: a STOCK update commits");
  Expect(!CheckIndexMatchesScan(f->db.get(), f->w.tables, f->db->aux_slot(0),
                                image, 7, 200)
              .ok(),
         "index vs scan: fails on a row changed after the scan");
}

void TestConsistency(Fixture* f) {
  Expect(tpcc::CheckConsistency(&f->w).ok(), "consistency: passes");
  Digest before = f->Snap();
  // A district whose next order id moves without an order being entered.
  phoebe::OpContext ctx;
  ctx.synchronous = true;
  phoebe::Transaction* txn = f->db->Begin(f->db->aux_slot(2));
  phoebe::RowId rid = 0;
  phoebe::Slice row;
  Status st = f->w.tables.district->IndexGetRef(
      &ctx, txn, tpcc::Tables::kPk,
      {phoebe::Value::Int32(1), phoebe::Value::Int32(1)}, &rid, &row);
  if (st.ok()) {
    st = f->w.tables.district->UpdateApply(
        &ctx, txn, rid,
        [](phoebe::RowView cur,
           std::vector<std::pair<uint32_t, phoebe::Value>>* sets) {
          sets->push_back({tpcc::District::kNextOId,
                           phoebe::Value::Int32(
                               cur.GetInt32(tpcc::District::kNextOId) + 1)});
          return Status::OK();
        });
  }
  if (st.ok()) st = f->db->Commit(&ctx, txn);
  else (void)f->db->Abort(&ctx, txn);
  Expect(st.ok(), "consistency: a bare D_NEXT_O_ID bump commits");
  Expect(!tpcc::CheckConsistency(&f->w).ok(),
         "consistency: fails after the bump");
  Digest after = f->Snap();
  Expect(!CheckNewOrderConservation(before, after, Acks(), before.rows[kOrder])
              .ok(),
         "neworder: fails on an order id no NewOrder entered");
}

}  // namespace
}  // namespace tpccbench

int main(int argc, char** argv) {
  if (argc != 2) {
    fprintf(stderr, "usage: checks_test <data-dir>\n");
    return 2;
  }
  const std::string dir = argv[1];
  (void)phoebe::Env::Default()->RemoveDirRecursive(dir);
  int rc = 0;
  {
    tpccbench::Fixture f;
    phoebe::Status st = f.Open(dir);
    if (!st.ok()) {
      fprintf(stderr, "checks_test: set-up failed: %s\n",
              st.ToString().c_str());
      rc = 1;
    } else {
      phoebe::tpcc::TpccRandom rnd(42);
      tpccbench::TestNewOrderConservation(&f, &rnd);
      tpccbench::TestMoneyConservation(&f, &rnd);
      tpccbench::TestDigest(&f, &rnd);
      tpccbench::TestIndexVsScan(&f);
      tpccbench::TestConsistency(&f);
      rc = tpccbench::g_failures == 0 ? 0 : 1;
      printf("%s: %d failed expectations\n", rc == 0 ? "PASS" : "FAIL",
             tpccbench::g_failures);
    }
  }
  (void)phoebe::Env::Default()->RemoveDirRecursive(dir);
  return rc;
}
