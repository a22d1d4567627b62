#include "common/binary_io.h"

namespace rainbow {

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void Encoder::PatchU32(size_t pos, uint32_t v) {
  assert(pos + 4 <= size());
  for (int i = 0; i < 4; ++i) {
    buf_[pos + i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

void Encoder::PutTxnId(const TxnId& id) {
  PutU32(id.home);
  PutU64(id.seq);
}

void Encoder::PutTimestamp(const TxnTimestamp& ts) {
  PutI64(ts.time);
  PutU32(ts.site);
}

Result<uint8_t> Decoder::GetU8() {
  if (pos_ + 1 > size_) return Status::InvalidArgument("truncated u8");
  return data_[pos_++];
}

Result<uint32_t> Decoder::GetU32() {
  if (pos_ + 4 > size_) return Status::InvalidArgument("truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

Result<uint64_t> Decoder::GetU64() {
  if (pos_ + 8 > size_) return Status::InvalidArgument("truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(data_[pos_++]) << (8 * i);
  }
  return v;
}

Result<int64_t> Decoder::GetI64() {
  RAINBOW_ASSIGN_OR_RETURN(uint64_t v, GetU64());
  return static_cast<int64_t>(v);
}

Result<bool> Decoder::GetBool() {
  RAINBOW_ASSIGN_OR_RETURN(uint8_t v, GetU8());
  if (v > 1) return Status::InvalidArgument("bad bool");
  return v == 1;
}

Result<TxnId> Decoder::GetTxnId() {
  TxnId id;
  RAINBOW_ASSIGN_OR_RETURN(id.home, GetU32());
  RAINBOW_ASSIGN_OR_RETURN(id.seq, GetU64());
  return id;
}

Result<TxnTimestamp> Decoder::GetTimestamp() {
  TxnTimestamp ts;
  RAINBOW_ASSIGN_OR_RETURN(ts.time, GetI64());
  RAINBOW_ASSIGN_OR_RETURN(ts.site, GetU32());
  return ts;
}

}  // namespace rainbow
