#include "workload/tpcc_txn.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/logging.h"
#include "obs/span.h"
#include "workload/tpcc_gen.h"

namespace sias {
namespace tpcc {

const char* ToString(TxnType t) {
  switch (t) {
    case TxnType::kNewOrder:
      return "NewOrder";
    case TxnType::kPayment:
      return "Payment";
    case TxnType::kOrderStatus:
      return "OrderStatus";
    case TxnType::kDelivery:
      return "Delivery";
    case TxnType::kStockLevel:
      return "StockLevel";
  }
  return "?";
}

TxnType TpccExecutor::PickType(Random& rng) const {
  int64_t r = rng.UniformInt(1, 100);
  if (r <= cfg_.pct_new_order) return TxnType::kNewOrder;
  r -= cfg_.pct_new_order;
  if (r <= cfg_.pct_payment) return TxnType::kPayment;
  r -= cfg_.pct_payment;
  if (r <= cfg_.pct_order_status) return TxnType::kOrderStatus;
  r -= cfg_.pct_order_status;
  if (r <= cfg_.pct_delivery) return TxnType::kDelivery;
  return TxnType::kStockLevel;
}

TxnOutcome TpccExecutor::Run(TxnType type, int64_t w_id, Random& rng,
                             VirtualClock* clk, Status* error) {
  // Root span for the attempt: every engine span below lands in this
  // transaction's phase breakdown (obs/span.h).
  obs::TxnSpan root(ToString(type), clk);
  clk->Cpu(kCpuCostByType[static_cast<int>(type)]);
  auto txn = db_->Begin(clk);
  bool user_abort = false;
  Status s;
  switch (type) {
    case TxnType::kNewOrder:
      s = NewOrder(txn.get(), w_id, rng, &user_abort);
      break;
    case TxnType::kPayment:
      s = Payment(txn.get(), w_id, rng);
      break;
    case TxnType::kOrderStatus:
      s = OrderStatus(txn.get(), w_id, rng);
      break;
    case TxnType::kDelivery:
      s = Delivery(txn.get(), w_id, rng);
      break;
    case TxnType::kStockLevel:
      s = StockLevel(txn.get(), w_id, rng);
      break;
  }
  if (user_abort) {
    (void)db_->Abort(txn.get());
    return TxnOutcome::kUserAbort;
  }
  if (!s.ok()) {
    if (txn->state() == TxnState::kActive) (void)db_->Abort(txn.get());
    if (s.IsRetryable()) return TxnOutcome::kConflictAbort;
    if (error != nullptr) *error = s;
    return TxnOutcome::kError;
  }
  Status cs = db_->Commit(txn.get());
  if (!cs.ok()) {
    if (cs.IsRetryable()) return TxnOutcome::kConflictAbort;
    if (error != nullptr) *error = cs;
    return TxnOutcome::kError;
  }
  root.set_committed(true);
  return TxnOutcome::kCommitted;
}

Result<std::pair<Vid, Row>> TpccExecutor::PickCustomer(Transaction* txn,
                                                       int64_t w, int64_t d,
                                                       Random& rng) {
  if (rng.UniformInt(1, 100) <= 60) {
    // By last name: pick the median matching customer (spec §2.5.2.2).
    std::string last = LastName(
        rng.NURand(255, 0, 999, 173) % (cfg_.scale.customers_per_district * 3));
    SIAS_ASSIGN_OR_RETURN(
        auto matches,
        t_.customer->IndexLookup(txn, TpccTables::kCustomerByName,
                                 Slice(CustomerNameKey(w, d, last))));
    if (matches.empty()) {
      // Scaled-down name space can miss: fall back to by-id selection.
      int64_t c = rng.NURand(255, 1, cfg_.scale.customers_per_district, 259);
      SIAS_ASSIGN_OR_RETURN(
          auto by_id,
          t_.customer->IndexLookup(txn, TpccTables::kCustomerPk,
                                   Slice(CustomerKey(w, d, c))));
      if (by_id.empty()) return Status::NotFound("customer missing");
      return by_id[0];
    }
    std::sort(matches.begin(), matches.end(),
              [](const auto& a, const auto& b) {
                return a.second.GetString(ccol::kFirst) <
                       b.second.GetString(ccol::kFirst);
              });
    return matches[matches.size() / 2];
  }
  int64_t c = rng.NURand(255, 1, cfg_.scale.customers_per_district, 259);
  SIAS_ASSIGN_OR_RETURN(
      auto by_id, t_.customer->IndexLookup(txn, TpccTables::kCustomerPk,
                                           Slice(CustomerKey(w, d, c))));
  if (by_id.empty()) return Status::NotFound("customer missing");
  return by_id[0];
}

Status TpccExecutor::NewOrder(Transaction* txn, int64_t w_id, Random& rng,
                              bool* user_abort) {
  int64_t d_id = rng.UniformInt(1, cfg_.scale.districts_per_wh);
  int64_t c_id = rng.NURand(255, 1, cfg_.scale.customers_per_district, 259);

  // Warehouse tax (read-only).
  SIAS_ASSIGN_OR_RETURN(
      auto wh, t_.warehouse->IndexLookup(txn, TpccTables::kWarehousePk,
                                         Slice(WarehouseKey(w_id))));
  if (wh.empty()) return Status::NotFound("warehouse");
  double w_tax = wh[0].second.GetDouble(wcol::kTax);

  // District: take o_id, bump next_o_id (the per-district hot row).
  SIAS_ASSIGN_OR_RETURN(
      auto dist, t_.district->IndexLookup(txn, TpccTables::kDistrictPk,
                                          Slice(DistrictKey(w_id, d_id))));
  if (dist.empty()) return Status::NotFound("district");
  Row d_row = dist[0].second;
  int64_t o_id = d_row.GetInt(dcol::kNextOid);
  double d_tax = d_row.GetDouble(dcol::kTax);
  d_row.Set(dcol::kNextOid, o_id + 1);
  SIAS_RETURN_NOT_OK(t_.district->Update(txn, dist[0].first, d_row));

  // Customer discount (read-only).
  SIAS_ASSIGN_OR_RETURN(
      auto cust, t_.customer->IndexLookup(txn, TpccTables::kCustomerPk,
                                          Slice(CustomerKey(w_id, d_id,
                                                            c_id))));
  if (cust.empty()) return Status::NotFound("customer");
  double discount = cust[0].second.GetDouble(ccol::kDiscount);
  (void)discount;
  (void)w_tax;
  (void)d_tax;

  int64_t ol_cnt = rng.UniformInt(5, 15);
  bool all_local = true;

  // Insert ORDER and NEW_ORDER.
  Row order{{w_id, d_id, o_id, c_id, int64_t{0}, int64_t{0}, ol_cnt,
             int64_t{1}}};
  SIAS_RETURN_NOT_OK(t_.orders->Insert(txn, order).status());
  Row no{{w_id, d_id, o_id}};
  SIAS_RETURN_NOT_OK(t_.new_order->Insert(txn, no).status());

  for (int64_t ol = 1; ol <= ol_cnt; ++ol) {
    // 1% of New-Orders use an unused item id and roll back (spec §2.4.1.4).
    if (ol == ol_cnt && rng.OneIn(100)) {
      *user_abort = true;
      return Status::OK();
    }
    int64_t i_id = rng.NURand(8191, 1, cfg_.scale.items, 7911);
    int64_t supply_w = w_id;
    if (cfg_.warehouses > 1 &&
        rng.UniformInt(1, 100) <= cfg_.remote_stock_pct) {
      do {
        supply_w = rng.UniformInt(1, cfg_.warehouses);
      } while (supply_w == w_id);
      all_local = false;
    }
    (void)all_local;

    SIAS_ASSIGN_OR_RETURN(
        auto item, t_.item->IndexLookup(txn, TpccTables::kItemPk,
                                        Slice(ItemKey(i_id))));
    if (item.empty()) return Status::NotFound("item");
    double price = item[0].second.GetDouble(icol::kPrice);

    SIAS_ASSIGN_OR_RETURN(
        auto stock, t_.stock->IndexLookup(txn, TpccTables::kStockPk,
                                          Slice(StockKey(supply_w, i_id))));
    if (stock.empty()) return Status::NotFound("stock");
    Row s_row = stock[0].second;
    int64_t qty = s_row.GetInt(scol::kQuantity);
    int64_t ol_qty = rng.UniformInt(1, 10);
    qty = qty >= ol_qty + 10 ? qty - ol_qty : qty - ol_qty + 91;
    s_row.Set(scol::kQuantity, qty);
    s_row.Set(scol::kYtd, s_row.GetInt(scol::kYtd) + ol_qty);
    s_row.Set(scol::kOrderCnt, s_row.GetInt(scol::kOrderCnt) + 1);
    if (supply_w != w_id) {
      s_row.Set(scol::kRemoteCnt, s_row.GetInt(scol::kRemoteCnt) + 1);
    }
    SIAS_RETURN_NOT_OK(t_.stock->Update(txn, stock[0].first, s_row));

    Row line{{w_id, d_id, o_id, ol, i_id, supply_w, int64_t{0}, ol_qty,
              price * static_cast<double>(ol_qty),
              s_row.GetString(scol::kDist)}};
    SIAS_RETURN_NOT_OK(t_.order_line->Insert(txn, line).status());
  }
  return Status::OK();
}

Status TpccExecutor::Payment(Transaction* txn, int64_t w_id, Random& rng) {
  int64_t d_id = rng.UniformInt(1, cfg_.scale.districts_per_wh);
  double amount = static_cast<double>(rng.Uniform(100, 500000)) / 100.0;

  // Customer home warehouse: 85% local, 15% remote.
  int64_t c_w = w_id, c_d = d_id;
  if (cfg_.warehouses > 1 &&
      rng.UniformInt(1, 100) <= cfg_.remote_payment_pct) {
    do {
      c_w = rng.UniformInt(1, cfg_.warehouses);
    } while (c_w == w_id);
    c_d = rng.UniformInt(1, cfg_.scale.districts_per_wh);
  }

  // Warehouse: bump ytd.
  SIAS_ASSIGN_OR_RETURN(
      auto wh, t_.warehouse->IndexLookup(txn, TpccTables::kWarehousePk,
                                         Slice(WarehouseKey(w_id))));
  if (wh.empty()) return Status::NotFound("warehouse");
  Row w_row = wh[0].second;
  w_row.Set(wcol::kYtd, w_row.GetDouble(wcol::kYtd) + amount);
  SIAS_RETURN_NOT_OK(t_.warehouse->Update(txn, wh[0].first, w_row));

  // District: bump ytd.
  SIAS_ASSIGN_OR_RETURN(
      auto dist, t_.district->IndexLookup(txn, TpccTables::kDistrictPk,
                                          Slice(DistrictKey(w_id, d_id))));
  if (dist.empty()) return Status::NotFound("district");
  Row d_row = dist[0].second;
  d_row.Set(dcol::kYtd, d_row.GetDouble(dcol::kYtd) + amount);
  SIAS_RETURN_NOT_OK(t_.district->Update(txn, dist[0].first, d_row));

  // Customer: balance, ytd payment, counter (+ bad-credit data rewrite).
  SIAS_ASSIGN_OR_RETURN(auto cust, PickCustomer(txn, c_w, c_d, rng));
  Row c_row = cust.second;
  c_row.Set(ccol::kBalance, c_row.GetDouble(ccol::kBalance) - amount);
  c_row.Set(ccol::kYtdPayment, c_row.GetDouble(ccol::kYtdPayment) + amount);
  c_row.Set(ccol::kPaymentCnt, c_row.GetInt(ccol::kPaymentCnt) + 1);
  if (c_row.GetString(ccol::kCredit) == "BC") {
    std::string data = std::to_string(c_row.GetInt(ccol::kId)) + ":" +
                       std::to_string(w_id) + ":" + std::to_string(amount) +
                       "|" + c_row.GetString(ccol::kData);
    data.resize(std::min<size_t>(
        data.size(), static_cast<size_t>(cfg_.scale.customer_data_len)));
    c_row.Set(ccol::kData, data);
  }
  SIAS_RETURN_NOT_OK(t_.customer->Update(txn, cust.first, c_row));

  Row hist{{c_w, c_d, c_row.GetInt(ccol::kId), w_id, d_id, int64_t{0},
            amount, RandString(rng, 12, 24)}};
  SIAS_RETURN_NOT_OK(t_.history->Insert(txn, hist).status());
  return Status::OK();
}

Status TpccExecutor::OrderStatus(Transaction* txn, int64_t w_id,
                                 Random& rng) {
  int64_t d_id = rng.UniformInt(1, cfg_.scale.districts_per_wh);
  SIAS_ASSIGN_OR_RETURN(auto cust, PickCustomer(txn, w_id, d_id, rng));
  int64_t c_id = cust.second.GetInt(ccol::kId);

  // Newest order of the customer.
  int64_t last_o_id = -1;
  SIAS_RETURN_NOT_OK(t_.orders->IndexRange(
      txn, TpccTables::kOrdersByCustomer,
      Slice(OrderByCustomerKey(w_id, d_id, c_id, 0)),
      Slice(OrderByCustomerKey(w_id, d_id, c_id,
                               std::numeric_limits<int64_t>::max())),
      [&](Vid, const Row& row) {
        last_o_id = row.GetInt(ocol::kId);
        return true;  // keep going: the last one seen is the newest
      }));
  if (last_o_id < 0) return Status::OK();  // customer with no orders

  // Its order lines.
  int64_t lines = 0;
  SIAS_RETURN_NOT_OK(t_.order_line->IndexRange(
      txn, TpccTables::kOrderLinePk,
      Slice(OrderLineKey(w_id, d_id, last_o_id, 0)),
      Slice(OrderLineKey(w_id, d_id, last_o_id + 1, 0)),
      [&](Vid, const Row&) {
        lines++;
        return true;
      }));
  (void)lines;
  return Status::OK();
}

Status TpccExecutor::Delivery(Transaction* txn, int64_t w_id, Random& rng) {
  int64_t carrier = rng.UniformInt(1, 10);
  for (int64_t d_id = 1; d_id <= cfg_.scale.districts_per_wh; ++d_id) {
    // Oldest undelivered order in this district.
    Vid no_vid = kInvalidVid;
    int64_t o_id = -1;
    SIAS_RETURN_NOT_OK(t_.new_order->IndexRange(
        txn, TpccTables::kNewOrderPk, Slice(NewOrderKey(w_id, d_id, 0)),
        Slice(NewOrderKey(w_id, d_id + 1, 0)), [&](Vid vid, const Row& row) {
          no_vid = vid;
          o_id = row.GetInt(nocol::kOid);
          return false;  // first = oldest
        }));
    if (o_id < 0) continue;  // nothing to deliver here

    SIAS_RETURN_NOT_OK(t_.new_order->Delete(txn, no_vid));

    SIAS_ASSIGN_OR_RETURN(
        auto order, t_.orders->IndexLookup(txn, TpccTables::kOrdersPk,
                                           Slice(OrderKey(w_id, d_id,
                                                          o_id))));
    if (order.empty()) continue;
    Row o_row = order[0].second;
    int64_t c_id = o_row.GetInt(ocol::kCid);
    o_row.Set(ocol::kCarrierId, carrier);
    SIAS_RETURN_NOT_OK(t_.orders->Update(txn, order[0].first, o_row));

    // Stamp delivery date on the lines; sum the amounts.
    double total = 0;
    std::vector<std::pair<Vid, Row>> lines;
    SIAS_RETURN_NOT_OK(t_.order_line->IndexRange(
        txn, TpccTables::kOrderLinePk,
        Slice(OrderLineKey(w_id, d_id, o_id, 0)),
        Slice(OrderLineKey(w_id, d_id, o_id + 1, 0)),
        [&](Vid vid, const Row& row) {
          lines.emplace_back(vid, row);
          return true;
        }));
    for (auto& [vid, row] : lines) {
      total += row.GetDouble(olcol::kAmount);
      row.Set(olcol::kDeliveryD, o_id);
      SIAS_RETURN_NOT_OK(t_.order_line->Update(txn, vid, row));
    }

    SIAS_ASSIGN_OR_RETURN(
        auto cust, t_.customer->IndexLookup(txn, TpccTables::kCustomerPk,
                                            Slice(CustomerKey(w_id, d_id,
                                                              c_id))));
    if (cust.empty()) continue;
    Row c_row = cust[0].second;
    c_row.Set(ccol::kBalance, c_row.GetDouble(ccol::kBalance) + total);
    c_row.Set(ccol::kDeliveryCnt, c_row.GetInt(ccol::kDeliveryCnt) + 1);
    SIAS_RETURN_NOT_OK(t_.customer->Update(txn, cust[0].first, c_row));
  }
  return Status::OK();
}

Status TpccExecutor::StockLevel(Transaction* txn, int64_t w_id, Random& rng) {
  int64_t d_id = rng.UniformInt(1, cfg_.scale.districts_per_wh);
  int64_t threshold = rng.UniformInt(10, 20);

  SIAS_ASSIGN_OR_RETURN(
      auto dist, t_.district->IndexLookup(txn, TpccTables::kDistrictPk,
                                          Slice(DistrictKey(w_id, d_id))));
  if (dist.empty()) return Status::NotFound("district");
  int64_t next_o = dist[0].second.GetInt(dcol::kNextOid);
  int64_t from_o = std::max<int64_t>(1, next_o - 20);

  // Distinct items in the last 20 orders' lines.
  std::set<int64_t> items;
  SIAS_RETURN_NOT_OK(t_.order_line->IndexRange(
      txn, TpccTables::kOrderLinePk,
      Slice(OrderLineKey(w_id, d_id, from_o, 0)),
      Slice(OrderLineKey(w_id, d_id, next_o, 0)), [&](Vid, const Row& row) {
        items.insert(row.GetInt(olcol::kIid));
        return true;
      }));

  int64_t low = 0;
  for (int64_t i_id : items) {
    SIAS_ASSIGN_OR_RETURN(
        auto stock, t_.stock->IndexLookup(txn, TpccTables::kStockPk,
                                          Slice(StockKey(w_id, i_id))));
    if (!stock.empty() &&
        stock[0].second.GetInt(scol::kQuantity) < threshold) {
      low++;
    }
  }
  (void)low;
  return Status::OK();
}

}  // namespace tpcc
}  // namespace sias
