#ifndef PHOEBE_TPCCBENCH_CHECKS_H_
#define PHOEBE_TPCCBENCH_CHECKS_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/database.h"
#include "tpcc/tpcc_schema.h"

namespace tpccbench {

using phoebe::Database;
using phoebe::Status;

/// The nine TPC-C tables in digest order.
enum TableIdx : size_t {
  kWarehouse = 0, kDistrict, kCustomer, kHistory, kNewOrder, kOrder,
  kOrderLine, kItem, kStock, kNumTables,
};

/// Whole-database aggregates read by full visible-row scans. The checks
/// compare two digests against what the generator saw acknowledged, so
/// they depend on no counter kept by the program itself.
struct Digest {
  std::array<uint64_t, kNumTables> rows{};
  /// Sum over districts of (D_NEXT_O_ID - 1): the orders ever entered.
  int64_t sum_next_o_id_minus_1 = 0;
  int64_t sum_s_quantity = 0;
  double sum_w_ytd = 0;
  double sum_d_ytd = 0;
  double sum_c_balance = 0;
  /// Encoded bytes of every live row (the "user bytes" of the database).
  uint64_t live_row_bytes = 0;

  bool operator==(const Digest& o) const;
  std::string ToString() const;
};

/// Scans every table once in a single read-only transaction on `slot`.
/// The caller guarantees no concurrent writers.
Status ComputeDigest(Database* db, const phoebe::tpcc::Tables& t,
                     uint32_t slot, Digest* out);

/// Outcomes the generator saw acknowledged as committed.
struct Acks {
  uint64_t new_orders = 0;
  uint64_t order_lines = 0;  // sum of ol_cnt over acknowledged NewOrders
  uint64_t payments = 0;
  int64_t payment_cents = 0;  // sum of acknowledged Payment amounts
};

/// NewOrder conservation: sum(D_NEXT_O_ID - 1) and the ORDER row count each
/// rose by exactly the acknowledged NewOrders; ORDER_LINE rose by their
/// lines. `loaded_orders` is what the loader put in (checked on `before`).
Status CheckNewOrderConservation(const Digest& before, const Digest& after,
                                 const Acks& acks, int64_t loaded_orders);

/// Money conservation: sum(W_YTD) and sum(D_YTD) each rose by exactly the
/// acknowledged Payment amounts, to the cent; HISTORY by one row each.
Status CheckMoneyConservation(const Digest& before, const Digest& after,
                              const Acks& acks);

/// Read-only workload: nothing observable changed.
Status CheckDigestUnchanged(const Digest& before, const Digest& after);

/// Rows of the tables the read path probes, as a full scan returns them.
struct ScanImage {
  /// STOCK keyed by (s_w_id, s_i_id).
  std::map<std::pair<int32_t, int32_t>, std::string> stock;
  /// ORDER_LINE grouped by (ol_w_id, ol_d_id, ol_o_id), in ol_number order.
  std::map<std::tuple<int32_t, int32_t, int32_t>, std::vector<std::string>>
      order_lines;
};
Status ScanForProbe(Database* db, const phoebe::tpcc::Tables& t,
                    uint32_t slot, ScanImage* out);

/// Probes every STOCK row by primary key (IndexGetRef) and `order_samples`
/// seeded ORDER_LINE prefixes (IndexScanRef), and requires byte-identical
/// rows to `image`. Keys past the loaded range must be NotFound.
Status CheckIndexMatchesScan(Database* db, const phoebe::tpcc::Tables& t,
                             uint32_t slot, const ScanImage& image,
                             uint64_t seed, int order_samples);

}  // namespace tpccbench

#endif  // PHOEBE_TPCCBENCH_CHECKS_H_
