#include "engine/schema.h"

namespace sias {

Status Row::Encode(const Schema& schema, std::string* out) const {
  if (values_.size() != schema.num_columns()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  for (size_t i = 0; i < values_.size(); ++i) {
    switch (schema.column(i).type) {
      case ColumnType::kInt64: {
        const int64_t* v = std::get_if<int64_t>(&values_[i]);
        if (v == nullptr) return Status::InvalidArgument("expected int64");
        PutFixed64(out, static_cast<uint64_t>(*v));
        break;
      }
      case ColumnType::kDouble: {
        const double* v = std::get_if<double>(&values_[i]);
        if (v == nullptr) return Status::InvalidArgument("expected double");
        uint64_t bits;
        memcpy(&bits, v, 8);
        PutFixed64(out, bits);
        break;
      }
      case ColumnType::kString: {
        const std::string* v = std::get_if<std::string>(&values_[i]);
        if (v == nullptr) return Status::InvalidArgument("expected string");
        if (v->size() > 0xffff) {
          return Status::InvalidArgument("string too long");
        }
        PutFixed16(out, static_cast<uint16_t>(v->size()));
        out->append(*v);
        break;
      }
    }
  }
  return Status::OK();
}

Result<Row> Row::Decode(const Schema& schema, Slice data) {
  Row row;
  row.values_.reserve(schema.num_columns());
  const uint8_t* p = data.data();
  const uint8_t* end = data.data() + data.size();
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    switch (schema.column(i).type) {
      case ColumnType::kInt64: {
        if (p + 8 > end) return Status::Corruption("row truncated");
        row.values_.emplace_back(std::in_place_type<int64_t>,
                                 static_cast<int64_t>(DecodeFixed64(p)));
        p += 8;
        break;
      }
      case ColumnType::kDouble: {
        if (p + 8 > end) return Status::Corruption("row truncated");
        uint64_t bits = DecodeFixed64(p);
        double v;
        memcpy(&v, &bits, 8);
        row.values_.emplace_back(std::in_place_type<double>, v);
        p += 8;
        break;
      }
      case ColumnType::kString: {
        if (p + 2 > end) return Status::Corruption("row truncated");
        uint16_t len = DecodeFixed16(p);
        p += 2;
        if (p + len > end) return Status::Corruption("row truncated");
        row.values_.emplace_back(std::in_place_type<std::string>,
                                 reinterpret_cast<const char*>(p), len);
        p += len;
        break;
      }
    }
  }
  if (p != end) return Status::Corruption("row has trailing bytes");
  return row;
}

}  // namespace sias
