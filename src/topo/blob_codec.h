#ifndef TENCENTREC_TOPO_BLOB_CODEC_H_
#define TENCENTREC_TOPO_BLOB_CODEC_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/topk.h"
#include "core/content.h"
#include "core/rating.h"
#include "core/scored.h"

namespace tencentrec::topo {

/// Binary serialization for the structured blobs bolts keep in TDStore.
/// Fixed-width little-endian records behind a count header; Decode*
/// functions return Corruption on any size mismatch.

/// UserHistory <-> blob of (item, rating, last_action) records.
std::string EncodeUserHistory(const core::UserHistory& history);
Result<core::UserHistory> DecodeUserHistory(std::string_view blob);

/// Scored list (similar items, hot items, results) <-> blob. A top-K table
/// encodes its entries in rank order, as the list of them would, and
/// decodes into a table of capacity `k` with TopK::Load: the table Update
/// over the entries builds, in O(k) for a blob a table encoded.
std::string EncodeScoredList(const core::Recommendations& list);
std::string EncodeScoredList(const TopK<core::ItemId>& list);
Result<core::Recommendations> DecodeScoredList(std::string_view blob);
Result<TopK<core::ItemId>> DecodeScoredList(std::string_view blob, size_t k);

/// Tag vector <-> blob.
std::string EncodeTagVector(const core::TagVector& tags);
Result<core::TagVector> DecodeTagVector(std::string_view blob);

/// Item id list (tag inverted index) <-> blob.
std::string EncodeItemList(const std::vector<core::ItemId>& items);
Result<std::vector<core::ItemId>> DecodeItemList(std::string_view blob);

/// Content profile: (tag, weight) pairs plus last-update time.
struct ContentProfileBlob {
  std::vector<std::pair<core::TagId, double>> weights;
  EventTime last_update = 0;
};
std::string EncodeContentProfile(const ContentProfileBlob& profile);
Result<ContentProfileBlob> DecodeContentProfile(std::string_view blob);

/// Two doubles (CTR impressions/clicks).
std::string EncodeDoublePair(double a, double b);
Result<std::pair<double, double>> DecodeDoublePair(std::string_view blob);

}  // namespace tencentrec::topo

#endif  // TENCENTREC_TOPO_BLOB_CODEC_H_
