#ifndef TENCENTREC_TDSTORE_CODEC_H_
#define TENCENTREC_TDSTORE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace tencentrec::tdstore {

/// Fixed-width binary encodings for counter values stored in TDStore. The
/// recommendation algorithms keep every counter (itemCount, pairCount,
/// n_ij, CTR statistics) as a double; the 8-byte encoding makes server-side
/// atomic increments cheap.
inline std::string EncodeDouble(double v) {
  std::string out(sizeof(double), '\0');
  std::memcpy(out.data(), &v, sizeof(double));
  return out;
}

inline Result<double> DecodeDouble(std::string_view s) {
  if (s.size() != sizeof(double)) {
    return Status::Corruption("bad double encoding (size " +
                              std::to_string(s.size()) + ")");
  }
  double v;
  std::memcpy(&v, s.data(), sizeof(double));
  return v;
}

/// Allocation-free variant for batch paths: overwrites `out` in place, so a
/// loop encoding many counters can reuse one scratch string.
inline void EncodeDoubleTo(std::string* out, double v) {
  out->resize(sizeof(double));
  std::memcpy(out->data(), &v, sizeof(double));
}

}  // namespace tencentrec::tdstore

#endif  // TENCENTREC_TDSTORE_CODEC_H_
