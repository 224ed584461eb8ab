#include "workload/tpcc_schema.h"

namespace sias {
namespace tpcc {

std::string WarehouseKey(int64_t w) { return IntKey(w); }

std::string DistrictKey(int64_t w, int64_t d) {
  return KeyBuilder().AddInt(w).AddInt(d).Take();
}

std::string CustomerKey(int64_t w, int64_t d, int64_t c) {
  return KeyBuilder().AddInt(w).AddInt(d).AddInt(c).Take();
}

std::string CustomerNameKey(int64_t w, int64_t d, const std::string& last) {
  return KeyBuilder().AddInt(w).AddInt(d).AddString(Slice(last)).Take();
}

std::string NewOrderKey(int64_t w, int64_t d, int64_t o) {
  return KeyBuilder().AddInt(w).AddInt(d).AddInt(o).Take();
}

std::string OrderKey(int64_t w, int64_t d, int64_t o) {
  return KeyBuilder().AddInt(w).AddInt(d).AddInt(o).Take();
}

std::string OrderByCustomerKey(int64_t w, int64_t d, int64_t c, int64_t o) {
  return KeyBuilder().AddInt(w).AddInt(d).AddInt(c).AddInt(o).Take();
}

std::string OrderLineKey(int64_t w, int64_t d, int64_t o, int64_t ol) {
  return KeyBuilder().AddInt(w).AddInt(d).AddInt(o).AddInt(ol).Take();
}

std::string ItemKey(int64_t i) { return IntKey(i); }

std::string StockKey(int64_t w, int64_t i) {
  return KeyBuilder().AddInt(w).AddInt(i).Take();
}

Result<TpccTables> CreateTpccTables(Database* db, VersionScheme scheme) {
  TpccTables t;
  const auto I = ColumnType::kInt64;
  const auto D = ColumnType::kDouble;
  const auto S = ColumnType::kString;

  SIAS_ASSIGN_OR_RETURN(
      t.warehouse,
      db->CreateTable("warehouse",
                      Schema{{"w_id", I}, {"w_name", S}, {"w_street", S},
                             {"w_city", S}, {"w_state", S}, {"w_zip", S},
                             {"w_tax", D}, {"w_ytd", D}},
                      scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(t.warehouse, "warehouse_pk",
                                     KeyExtractor::IntColumns({wcol::kId})));

  SIAS_ASSIGN_OR_RETURN(
      t.district,
      db->CreateTable("district",
                      Schema{{"d_w_id", I}, {"d_id", I}, {"d_name", S},
                             {"d_street", S}, {"d_city", S}, {"d_state", S},
                             {"d_zip", S}, {"d_tax", D}, {"d_ytd", D},
                             {"d_next_o_id", I}},
                      scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.district, "district_pk",
      KeyExtractor::IntColumns({dcol::kWid, dcol::kId})));

  SIAS_ASSIGN_OR_RETURN(
      t.customer,
      db->CreateTable(
          "customer",
          Schema{{"c_w_id", I}, {"c_d_id", I}, {"c_id", I}, {"c_first", S},
                 {"c_middle", S}, {"c_last", S}, {"c_street", S},
                 {"c_city", S}, {"c_state", S}, {"c_zip", S}, {"c_phone", S},
                 {"c_since", I}, {"c_credit", S}, {"c_credit_lim", D},
                 {"c_discount", D}, {"c_balance", D}, {"c_ytd_payment", D},
                 {"c_payment_cnt", I}, {"c_delivery_cnt", I}, {"c_data", S}},
          scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.customer, "customer_pk",
      KeyExtractor::IntColumns({ccol::kWid, ccol::kDid, ccol::kId})));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.customer, "customer_by_name", [](const Row& r) {
        return CustomerNameKey(r.GetInt(ccol::kWid), r.GetInt(ccol::kDid),
                               r.GetString(ccol::kLast));
      }));

  SIAS_ASSIGN_OR_RETURN(
      t.history,
      db->CreateTable("history",
                      Schema{{"h_c_w_id", I}, {"h_c_d_id", I}, {"h_c_id", I},
                             {"h_w_id", I}, {"h_d_id", I}, {"h_date", I},
                             {"h_amount", D}, {"h_data", S}},
                      scheme));

  SIAS_ASSIGN_OR_RETURN(
      t.new_order,
      db->CreateTable("new_order",
                      Schema{{"no_w_id", I}, {"no_d_id", I}, {"no_o_id", I}},
                      scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.new_order, "new_order_pk",
      KeyExtractor::IntColumns({nocol::kWid, nocol::kDid, nocol::kOid})));

  SIAS_ASSIGN_OR_RETURN(
      t.orders,
      db->CreateTable("orders",
                      Schema{{"o_w_id", I}, {"o_d_id", I}, {"o_id", I},
                             {"o_c_id", I}, {"o_entry_d", I},
                             {"o_carrier_id", I}, {"o_ol_cnt", I},
                             {"o_all_local", I}},
                      scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.orders, "orders_pk",
      KeyExtractor::IntColumns({ocol::kWid, ocol::kDid, ocol::kId})));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.orders, "orders_by_customer",
      KeyExtractor::IntColumns(
          {ocol::kWid, ocol::kDid, ocol::kCid, ocol::kId})));

  SIAS_ASSIGN_OR_RETURN(
      t.order_line,
      db->CreateTable("order_line",
                      Schema{{"ol_w_id", I}, {"ol_d_id", I}, {"ol_o_id", I},
                             {"ol_number", I}, {"ol_i_id", I},
                             {"ol_supply_w_id", I}, {"ol_delivery_d", I},
                             {"ol_quantity", I}, {"ol_amount", D},
                             {"ol_dist_info", S}},
                      scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.order_line, "order_line_pk",
      KeyExtractor::IntColumns(
          {olcol::kWid, olcol::kDid, olcol::kOid, olcol::kNumber})));

  SIAS_ASSIGN_OR_RETURN(
      t.item,
      db->CreateTable("item",
                      Schema{{"i_id", I}, {"i_im_id", I}, {"i_name", S},
                             {"i_price", D}, {"i_data", S}},
                      scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(t.item, "item_pk",
                                     KeyExtractor::IntColumns({icol::kId})));

  SIAS_ASSIGN_OR_RETURN(
      t.stock,
      db->CreateTable("stock",
                      Schema{{"s_w_id", I}, {"s_i_id", I}, {"s_quantity", I},
                             {"s_dist", S}, {"s_ytd", I}, {"s_order_cnt", I},
                             {"s_remote_cnt", I}, {"s_data", S}},
                      scheme));
  SIAS_RETURN_NOT_OK(db->CreateIndex(
      t.stock, "stock_pk", KeyExtractor::IntColumns({scol::kWid, scol::kIid})));

  return t;
}

}  // namespace tpcc
}  // namespace sias
