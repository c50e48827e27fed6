#include "topo/blob_codec.h"

#include <cstring>

namespace tencentrec::topo {

namespace {

template <typename T>
void PutRaw(std::string* out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool GetRaw(std::string_view blob, size_t* pos, T* out) {
  if (*pos + sizeof(T) > blob.size()) return false;
  std::memcpy(out, blob.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

/// Caps a decoded count header before vector::reserve: an adversarial or
/// corrupt header must not demand a huge allocation when the blob cannot
/// possibly hold that many `record_size`-byte records.
size_t PlausibleCount(uint32_t count, std::string_view blob, size_t pos,
                      size_t record_size) {
  const size_t fit = (blob.size() - pos) / record_size;
  return count < fit ? count : fit;
}


}  // namespace

std::string EncodeUserHistory(const core::UserHistory& history) {
  std::string out;
  PutRaw<uint32_t>(&out, static_cast<uint32_t>(history.items().size()));
  for (const auto& [item, state] : history.items()) {
    PutRaw<int64_t>(&out, item);
    PutRaw<double>(&out, state.rating);
    PutRaw<int64_t>(&out, state.last_action);
  }
  return out;
}

Result<core::UserHistory> DecodeUserHistory(std::string_view blob) {
  core::UserHistory history;
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetRaw(blob, &pos, &count)) {
    return Status::Corruption("user history: bad header");
  }
  for (uint32_t i = 0; i < count; ++i) {
    int64_t item;
    double rating;
    int64_t last_action;
    if (!GetRaw(blob, &pos, &item) || !GetRaw(blob, &pos, &rating) ||
        !GetRaw(blob, &pos, &last_action)) {
      return Status::Corruption("user history: truncated record");
    }
    history.Restore(item, rating, last_action);
  }
  if (pos != blob.size()) {
    return Status::Corruption("user history: trailing bytes");
  }
  return history;
}

std::string EncodeScoredList(const core::Recommendations& list) {
  std::string out;
  PutRaw<uint32_t>(&out, static_cast<uint32_t>(list.size()));
  for (const auto& s : list) {
    PutRaw<int64_t>(&out, s.item);
    PutRaw<double>(&out, s.score);
  }
  return out;
}

std::string EncodeScoredList(const TopK<core::ItemId>& list) {
  std::string out;
  PutRaw<uint32_t>(&out, static_cast<uint32_t>(list.size()));
  for (size_t r = 0; r < list.size(); ++r) {
    PutRaw<int64_t>(&out, list.id_at(r));
    PutRaw<double>(&out, list.score_at(r));
  }
  return out;
}

Result<core::Recommendations> DecodeScoredList(std::string_view blob) {
  core::Recommendations list;
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetRaw(blob, &pos, &count)) {
    return Status::Corruption("scored list: bad header");
  }
  list.reserve(PlausibleCount(count, blob, pos, 16));
  for (uint32_t i = 0; i < count; ++i) {
    core::ScoredItem s;
    if (!GetRaw(blob, &pos, &s.item) || !GetRaw(blob, &pos, &s.score)) {
      return Status::Corruption("scored list: truncated record");
    }
    list.push_back(s);
  }
  if (pos != blob.size()) return Status::Corruption("scored list: trailing");
  return list;
}

Result<TopK<core::ItemId>> DecodeScoredList(std::string_view blob, size_t k) {
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetRaw(blob, &pos, &count)) {
    return Status::Corruption("scored list: bad header");
  }
  if (blob.size() - pos != static_cast<size_t>(count) * 16) {
    return Status::Corruption("scored list: size mismatch");
  }
  TopK<core::ItemId> list(k);
  list.Load(count, [&] {
    TopK<core::ItemId>::Entry e;
    GetRaw(blob, &pos, &e.id);
    GetRaw(blob, &pos, &e.score);
    return e;
  });
  return list;
}

std::string EncodeTagVector(const core::TagVector& tags) {
  std::string out;
  PutRaw<uint32_t>(&out, static_cast<uint32_t>(tags.size()));
  for (const auto& [tag, w] : tags) {
    PutRaw<int32_t>(&out, tag);
    PutRaw<double>(&out, w);
  }
  return out;
}

Result<core::TagVector> DecodeTagVector(std::string_view blob) {
  core::TagVector tags;
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetRaw(blob, &pos, &count)) {
    return Status::Corruption("tag vector: bad header");
  }
  tags.reserve(PlausibleCount(count, blob, pos, 12));
  for (uint32_t i = 0; i < count; ++i) {
    int32_t tag;
    double w;
    if (!GetRaw(blob, &pos, &tag) || !GetRaw(blob, &pos, &w)) {
      return Status::Corruption("tag vector: truncated record");
    }
    tags.emplace_back(tag, w);
  }
  if (pos != blob.size()) return Status::Corruption("tag vector: trailing");
  return tags;
}

std::string EncodeItemList(const std::vector<core::ItemId>& items) {
  std::string out;
  PutRaw<uint32_t>(&out, static_cast<uint32_t>(items.size()));
  for (core::ItemId item : items) PutRaw<int64_t>(&out, item);
  return out;
}

Result<std::vector<core::ItemId>> DecodeItemList(std::string_view blob) {
  std::vector<core::ItemId> items;
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetRaw(blob, &pos, &count)) {
    return Status::Corruption("item list: bad header");
  }
  items.reserve(PlausibleCount(count, blob, pos, 8));
  for (uint32_t i = 0; i < count; ++i) {
    int64_t item;
    if (!GetRaw(blob, &pos, &item)) {
      return Status::Corruption("item list: truncated record");
    }
    items.push_back(item);
  }
  if (pos != blob.size()) return Status::Corruption("item list: trailing");
  return items;
}

std::string EncodeContentProfile(const ContentProfileBlob& profile) {
  std::string out;
  PutRaw<int64_t>(&out, profile.last_update);
  PutRaw<uint32_t>(&out, static_cast<uint32_t>(profile.weights.size()));
  for (const auto& [tag, w] : profile.weights) {
    PutRaw<int32_t>(&out, tag);
    PutRaw<double>(&out, w);
  }
  return out;
}

Result<ContentProfileBlob> DecodeContentProfile(std::string_view blob) {
  ContentProfileBlob profile;
  size_t pos = 0;
  uint32_t count = 0;
  if (!GetRaw(blob, &pos, &profile.last_update) ||
      !GetRaw(blob, &pos, &count)) {
    return Status::Corruption("content profile: bad header");
  }
  profile.weights.reserve(PlausibleCount(count, blob, pos, 12));
  for (uint32_t i = 0; i < count; ++i) {
    int32_t tag;
    double w;
    if (!GetRaw(blob, &pos, &tag) || !GetRaw(blob, &pos, &w)) {
      return Status::Corruption("content profile: truncated record");
    }
    profile.weights.emplace_back(tag, w);
  }
  if (pos != blob.size()) {
    return Status::Corruption("content profile: trailing");
  }
  return profile;
}

std::string EncodeDoublePair(double a, double b) {
  std::string out;
  PutRaw<double>(&out, a);
  PutRaw<double>(&out, b);
  return out;
}

Result<std::pair<double, double>> DecodeDoublePair(std::string_view blob) {
  size_t pos = 0;
  double a, b;
  if (!GetRaw(blob, &pos, &a) || !GetRaw(blob, &pos, &b) ||
      pos != blob.size()) {
    return Status::Corruption("double pair: bad blob");
  }
  return std::make_pair(a, b);
}

}  // namespace tencentrec::topo
