#include "warp/serve/snapshot.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "warp/common/metrics.h"
#include "warp/common/stopwatch.h"
#include "warp/obs/histogram.h"

namespace warp {
namespace serve {

namespace {

constexpr char kMagic[8] = {'w', 'a', 'r', 'p', 's', 'n', 'a', 'p'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 8 + 4 + 4 + 8;

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 1469598103934665603ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

// ---- Payload writer: appends little-endian scalars to a byte buffer.

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutI64(std::string* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

// Raw IEEE-754 bit pattern: the round trip is bit-exact by construction,
// including negative zero and subnormals.
void PutF64(std::string* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

void PutDoubles(std::string* out, const double* values, size_t count) {
  for (size_t i = 0; i < count; ++i) PutF64(out, values[i]);
}

// ---- Payload reader: bounds-checked little-endian cursor.

struct Reader {
  const std::string& bytes;
  size_t pos = 0;

  bool U32(uint32_t* v) {
    if (bytes.size() - pos < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(static_cast<unsigned char>(bytes[pos + i]))
            << (8 * i);
    }
    pos += 4;
    return true;
  }

  bool U64(uint64_t* v) {
    if (bytes.size() - pos < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[pos + i]))
            << (8 * i);
    }
    pos += 8;
    return true;
  }

  bool I64(int64_t* v) {
    uint64_t u;
    if (!U64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool F64(double* v) {
    uint64_t bits;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }

  bool String(std::string* s) {
    uint64_t len;
    if (!U64(&len)) return false;
    if (bytes.size() - pos < len) return false;
    s->assign(bytes, pos, len);
    pos += len;
    return true;
  }

  bool Doubles(std::vector<double>* out, size_t count) {
    if ((bytes.size() - pos) / 8 < count) return false;
    out->resize(count);
    for (size_t i = 0; i < count; ++i) {
      if (!F64(&(*out)[i])) return false;
    }
    return true;
  }
};

bool Fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

// RAII FILE handle so every early return closes the descriptor.
struct File {
  std::FILE* f = nullptr;
  explicit File(const std::string& path, const char* mode)
      : f(std::fopen(path.c_str(), mode)) {}
  ~File() {
    if (f != nullptr) std::fclose(f);
  }
};

std::string BuildPayload(const StoredDataset& stored) {
  std::string payload;
  PutString(&payload, stored.name);
  PutU64(&payload, stored.epoch);
  PutU64(&payload, stored.uniform_length);
  PutU64(&payload, stored.size());
  PutU64(&payload, stored.bands.size());
  for (const size_t band : stored.bands) PutU64(&payload, band);
  // Everything below walks GLOBAL series order via `locate`, undoing the
  // sharded layout: the file never depends on the saving server's shard
  // count.
  for (size_t i = 0; i < stored.size(); ++i) {
    const TimeSeries& s = stored.SeriesAt(i);
    PutU64(&payload, s.size());
    PutI64(&payload, s.label());
    PutString(&payload, s.name());
    PutDoubles(&payload, s.view().data(), s.size());
  }
  for (size_t i = 0; i < stored.size(); ++i) {
    const SeriesRef ref = stored.locate[i];
    PutF64(&payload, stored.shards[ref.shard].head[ref.local]);
  }
  for (size_t i = 0; i < stored.size(); ++i) {
    const SeriesRef ref = stored.locate[i];
    PutF64(&payload, stored.shards[ref.shard].tail[ref.local]);
  }
  for (size_t slot = 0; slot < stored.bands.size(); ++slot) {
    for (size_t i = 0; i < stored.size(); ++i) {
      const SeriesRef ref = stored.locate[i];
      const Envelope& env =
          stored.shards[ref.shard].envelopes[slot][ref.local];
      PutDoubles(&payload, env.upper.data(), env.upper.size());
      PutDoubles(&payload, env.lower.data(), env.lower.size());
    }
  }
  return payload;
}

}  // namespace

bool SaveSnapshot(const StoredDataset& stored, const std::string& path,
                  std::string* error, SnapshotMeta* meta) {
  const Stopwatch watch;
  const std::string payload = BuildPayload(stored);
  const uint64_t checksum = Fnv1a(payload);

  std::string header;
  header.append(kMagic, sizeof(kMagic));
  PutU32(&header, kVersion);
  PutU32(&header, 0);  // flags
  PutU64(&header, payload.size());
  std::string trailer;
  PutU64(&trailer, checksum);

  File file(path, "wb");
  if (file.f == nullptr) {
    return Fail(error, "cannot open snapshot file for writing: " + path);
  }
  if (std::fwrite(header.data(), 1, header.size(), file.f) != header.size() ||
      std::fwrite(payload.data(), 1, payload.size(), file.f) !=
          payload.size() ||
      std::fwrite(trailer.data(), 1, trailer.size(), file.f) !=
          trailer.size()) {
    return Fail(error, "short write saving snapshot: " + path);
  }

  if (meta != nullptr) {
    meta->dataset = stored.name;
    meta->epoch = stored.epoch;
    meta->series = stored.size();
    meta->uniform_length = stored.uniform_length;
    meta->bands = stored.bands;
    meta->payload_bytes = payload.size();
    meta->checksum = checksum;
  }
  WARP_COUNT(obs::Counter::kServeSnapshotSaves);
  WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeSnapshotSaveUs,
                           watch.ElapsedMicros());
  return true;
}

bool LoadSnapshot(const std::string& path, DatasetIndex* index,
                  SnapshotMeta* meta, std::string* error) {
  const Stopwatch watch;
  File file(path, "rb");
  if (file.f == nullptr) {
    return Fail(error, "cannot open snapshot file: " + path);
  }

  char header[kHeaderBytes];
  if (std::fread(header, 1, kHeaderBytes, file.f) != kHeaderBytes) {
    return Fail(error, "truncated snapshot header: " + path);
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Fail(error, "bad snapshot magic (not a warp-snap file): " + path);
  }
  std::string fixed(header + 8, kHeaderBytes - 8);
  Reader fixed_reader{fixed};
  uint32_t version = 0;
  uint32_t flags = 0;
  uint64_t payload_len = 0;
  fixed_reader.U32(&version);
  fixed_reader.U32(&flags);
  fixed_reader.U64(&payload_len);
  if (version != kVersion) {
    return Fail(error, "unsupported snapshot version " +
                           std::to_string(version) + " (this build reads " +
                           std::to_string(kVersion) + "): " + path);
  }
  if (flags != 0) {
    return Fail(error, "snapshot uses unknown feature flags: " + path);
  }

  // The header's length is untrusted: refuse one the file cannot hold
  // before allocating for it.
  std::error_code size_error;
  const uintmax_t file_bytes = std::filesystem::file_size(path, size_error);
  if (size_error || payload_len > file_bytes - kHeaderBytes) {
    return Fail(error, "truncated snapshot payload: " + path);
  }
  std::string payload(payload_len, '\0');
  if (payload_len > 0 &&
      std::fread(payload.data(), 1, payload_len, file.f) != payload_len) {
    return Fail(error, "truncated snapshot payload: " + path);
  }
  char trailer[8];
  if (std::fread(trailer, 1, sizeof(trailer), file.f) != sizeof(trailer)) {
    return Fail(error, "truncated snapshot checksum: " + path);
  }
  std::string trailer_bytes(trailer, sizeof(trailer));
  Reader trailer_reader{trailer_bytes};
  uint64_t expected = 0;
  trailer_reader.U64(&expected);
  const uint64_t actual = Fnv1a(payload);
  if (actual != expected) {
    return Fail(error, "snapshot checksum mismatch (file corrupt): " + path);
  }

  Reader r{payload};
  DatasetIndex parsed;
  SnapshotMeta parsed_meta;
  uint64_t uniform_length = 0;
  uint64_t series_count = 0;
  uint64_t band_count = 0;
  if (!r.String(&parsed_meta.dataset) || !r.U64(&parsed_meta.epoch) ||
      !r.U64(&uniform_length) || !r.U64(&series_count) ||
      !r.U64(&band_count)) {
    return Fail(error, "truncated snapshot payload: " + path);
  }
  if (series_count == 0) {
    return Fail(error, "snapshot has no series: " + path);
  }
  parsed.uniform_length = static_cast<size_t>(uniform_length);
  for (uint64_t b = 0; b < band_count; ++b) {
    uint64_t band = 0;
    if (!r.U64(&band)) {
      return Fail(error, "truncated snapshot payload: " + path);
    }
    parsed.bands.push_back(static_cast<size_t>(band));
  }

  for (uint64_t i = 0; i < series_count; ++i) {
    uint64_t length = 0;
    int64_t label = 0;
    std::string name;
    if (!r.U64(&length) || !r.I64(&label) || !r.String(&name)) {
      return Fail(error, "truncated snapshot payload: " + path);
    }
    if (length == 0) {
      return Fail(error, "snapshot contains an empty series: " + path);
    }
    if (uniform_length > 0 && length != uniform_length) {
      return Fail(error,
                  "snapshot series length disagrees with its uniform-length "
                  "header: " +
                      path);
    }
    std::vector<double> values;
    if (!r.Doubles(&values, static_cast<size_t>(length))) {
      return Fail(error, "truncated snapshot payload: " + path);
    }
    for (const double v : values) {
      if (!std::isfinite(v)) {
        return Fail(error, "snapshot contains a non-finite value: " + path);
      }
    }
    TimeSeries series(std::move(values), static_cast<int>(label));
    series.set_name(std::move(name));
    parsed.data.Add(std::move(series));
  }
  parsed.data.set_name(parsed_meta.dataset);

  if (!r.Doubles(&parsed.head, static_cast<size_t>(series_count)) ||
      !r.Doubles(&parsed.tail, static_cast<size_t>(series_count))) {
    return Fail(error, "truncated snapshot payload: " + path);
  }
  for (uint64_t i = 0; i < series_count; ++i) {
    const std::vector<double>& values = parsed.data[i].values();
    if (std::memcmp(&parsed.head[i], &values.front(), sizeof(double)) != 0 ||
        std::memcmp(&parsed.tail[i], &values.back(), sizeof(double)) != 0) {
      return Fail(error,
                  "snapshot endpoint cache disagrees with its series: " +
                      path);
    }
  }

  parsed.envelopes.resize(parsed.bands.size());
  for (size_t slot = 0; slot < parsed.bands.size(); ++slot) {
    parsed.envelopes[slot].reserve(series_count);
    for (uint64_t i = 0; i < series_count; ++i) {
      Envelope env;
      const size_t length = parsed.data[i].size();
      if (!r.Doubles(&env.upper, length) || !r.Doubles(&env.lower, length)) {
        return Fail(error, "truncated snapshot payload: " + path);
      }
      // LB_Keogh relies on lower <= value <= upper at every point.
      const std::vector<double>& values = parsed.data[i].values();
      for (size_t j = 0; j < length; ++j) {
        if (!(env.lower[j] <= values[j] && values[j] <= env.upper[j])) {
          return Fail(error,
                      "snapshot envelope does not bound its series: " + path);
        }
      }
      parsed.envelopes[slot].push_back(std::move(env));
    }
  }
  if (r.pos != payload.size()) {
    return Fail(error, "snapshot has trailing garbage after payload: " + path);
  }

  parsed_meta.series = static_cast<size_t>(series_count);
  parsed_meta.uniform_length = parsed.uniform_length;
  parsed_meta.bands = parsed.bands;
  parsed_meta.payload_bytes = payload.size();
  parsed_meta.checksum = actual;

  *index = std::move(parsed);
  if (meta != nullptr) *meta = std::move(parsed_meta);
  WARP_COUNT(obs::Counter::kServeSnapshotLoads);
  WARP_HISTOGRAM_RECORD_US(obs::Histogram::kServeSnapshotLoadUs,
                           watch.ElapsedMicros());
  return true;
}

bool ListSnapshotFiles(const std::string& dir,
                       std::vector<std::string>* paths, std::string* error) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Fail(error, "cannot read snapshot directory " + dir + ": " +
                           ec.message());
  }
  std::vector<std::string> found;
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec) || ec) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() == kSnapshotExtension) found.push_back(p.string());
  }
  std::sort(found.begin(), found.end());
  *paths = std::move(found);
  return true;
}

}  // namespace serve
}  // namespace warp
