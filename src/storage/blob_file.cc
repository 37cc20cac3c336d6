#include "src/storage/blob_file.h"

#include <unistd.h>

#include <cstring>
#include <optional>

#include "src/common/check.h"

namespace prism {

namespace {

// {offset u64, size u64, precision u32, group u32, stored_size u64,
// codec u32, crc32c u32} after the 16-byte file header.
constexpr size_t kFileHeaderBytes = 16;
constexpr size_t kEntryBytes = 40;

size_t HeaderBytes(size_t count) { return kFileHeaderBytes + count * kEntryBytes; }

void PutU32(std::vector<uint8_t>& buf, uint32_t v) {
  const size_t at = buf.size();
  buf.resize(at + 4);
  std::memcpy(buf.data() + at, &v, 4);
}

void PutU64(std::vector<uint8_t>& buf, uint64_t v) {
  const size_t at = buf.size();
  buf.resize(at + 8);
  std::memcpy(buf.data() + at, &v, 8);
}

}  // namespace

BlobFileWriter::BlobFileWriter(const std::string& path) : path_(path) {
  SsdConfig config;
  config.throttle = false;
  ::unlink(path.c_str());
  ssd_ = std::make_unique<SimulatedSsd>(path, config);
}

size_t BlobFileWriter::AddBlob(std::span<const uint8_t> bytes) {
  return AddBlob(bytes, Precision::kFp32, 0);
}

size_t BlobFileWriter::AddBlob(std::span<const uint8_t> bytes, Precision precision,
                               uint32_t quant_group, BlobCodec codec) {
  PRISM_CHECK(!finished_);
  std::optional<std::vector<uint8_t>> coded;
  if (codec != BlobCodec::kRaw) {
    coded = blob_codec::Encode(codec, bytes);
  }
  const std::span<const uint8_t> stored = coded ? std::span<const uint8_t>(*coded) : bytes;
  // Blob bytes are staged in memory and flushed after the header in Finish,
  // once the table size (and thus the data-region start) is known.
  BlobEntry entry;
  entry.offset = data_cursor_;
  entry.size = static_cast<int64_t>(bytes.size());
  entry.precision = precision;
  entry.quant_group = quant_group;
  entry.stored_size = static_cast<int64_t>(stored.size());
  entry.codec = coded ? codec : BlobCodec::kRaw;
  entry.crc32c = blob_codec::Crc32c(stored);
  table_.push_back(entry);
  data_cursor_ += entry.stored_size;
  scratch_.insert(scratch_.end(), stored.begin(), stored.end());
  return table_.size() - 1;
}

Status BlobFileWriter::Finish() {
  PRISM_CHECK(!finished_);
  finished_ = true;
  const size_t header = HeaderBytes(table_.size());
  std::vector<uint8_t> buf;
  buf.reserve(header + scratch_.size());
  PutU32(buf, kBlobFileMagic);
  PutU32(buf, kBlobFileVersion);
  PutU64(buf, table_.size());
  for (const BlobEntry& entry : table_) {
    PutU64(buf, static_cast<uint64_t>(entry.offset + static_cast<int64_t>(header)));
    PutU64(buf, static_cast<uint64_t>(entry.size));
    PutU32(buf, static_cast<uint32_t>(entry.precision));
    PutU32(buf, entry.quant_group);
    PutU64(buf, static_cast<uint64_t>(entry.stored_size));
    PutU32(buf, static_cast<uint32_t>(entry.codec));
    PutU32(buf, entry.crc32c);
  }
  buf.insert(buf.end(), scratch_.begin(), scratch_.end());
  PRISM_RETURN_IF_ERROR(ssd_->Write(0, buf));
  scratch_.clear();
  return Status::Ok();
}

Result<std::unique_ptr<BlobFileReader>> BlobFileReader::Open(const std::string& path,
                                                             SsdConfig config) {
  auto reader = std::unique_ptr<BlobFileReader>(new BlobFileReader());
  reader->ssd_ = std::make_unique<SimulatedSsd>(path, config);
  // Header reads bypass the device model (they happen once at open).
  SsdConfig raw = config;
  raw.throttle = false;
  SimulatedSsd probe(path, raw);
  uint8_t header[kFileHeaderBytes];
  PRISM_RETURN_IF_ERROR(probe.Read(0, header));
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t count = 0;
  std::memcpy(&magic, header, 4);
  std::memcpy(&version, header + 4, 4);
  std::memcpy(&count, header + 8, 8);
  if (magic != kBlobFileMagic) {
    return Status::InvalidArgument("bad blob file magic in " + path);
  }
  if (version != kBlobFileVersion) {
    return Status::InvalidArgument("unsupported blob file version " + std::to_string(version));
  }
  // `count` comes from the file: bound it by the bytes there are before it
  // sizes anything.
  const uint64_t table_room = static_cast<uint64_t>(probe.SizeBytes()) - kFileHeaderBytes;
  if (count > table_room / kEntryBytes) {
    return Status::DataLoss("blob table of " + std::to_string(count) + " entries overruns " +
                            path);
  }
  std::vector<uint8_t> table(count * kEntryBytes);
  PRISM_RETURN_IF_ERROR(probe.Read(kFileHeaderBytes, table));
  reader->table_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint8_t* at = table.data() + i * kEntryBytes;
    BlobEntry entry;
    uint64_t offset = 0;
    uint64_t size = 0;
    uint32_t precision = 0;
    uint64_t stored_size = 0;
    uint32_t codec = 0;
    std::memcpy(&offset, at, 8);
    std::memcpy(&size, at + 8, 8);
    std::memcpy(&precision, at + 16, 4);
    std::memcpy(&entry.quant_group, at + 20, 4);
    std::memcpy(&stored_size, at + 24, 8);
    std::memcpy(&codec, at + 32, 4);
    std::memcpy(&entry.crc32c, at + 36, 4);
    if (precision > static_cast<uint32_t>(Precision::kW4)) {
      return Status::InvalidArgument("unknown precision tag " + std::to_string(precision) +
                                     " for blob " + std::to_string(i) + " in " + path);
    }
    if (codec > kMaxBlobCodecTag) {
      return Status::InvalidArgument("unknown codec tag " + std::to_string(codec) +
                                     " for blob " + std::to_string(i) + " in " + path);
    }
    entry.offset = static_cast<int64_t>(offset);
    entry.size = static_cast<int64_t>(size);
    entry.precision = static_cast<Precision>(precision);
    entry.stored_size = static_cast<int64_t>(stored_size);
    entry.codec = static_cast<BlobCodec>(codec);
    // A coded blob decodes in place, so it must fit in its decoded size.
    if (entry.codec == BlobCodec::kRaw ? stored_size != size : stored_size > size) {
      return Status::DataLoss("blob " + std::to_string(i) + " stores " +
                              std::to_string(stored_size) + " bytes for " +
                              std::to_string(size) + " decoded in " + path);
    }
    reader->table_.push_back(entry);
  }
  reader->blob_reads_ = std::vector<std::atomic<int64_t>>(reader->table_.size());
  return reader;
}

int64_t BlobFileReader::BlobSize(size_t index) const {
  PRISM_CHECK_LT(index, table_.size());
  return table_[index].size;
}

int64_t BlobFileReader::BlobStoredSize(size_t index) const {
  PRISM_CHECK_LT(index, table_.size());
  return table_[index].stored_size;
}

BlobCodec BlobFileReader::BlobCodecOf(size_t index) const {
  PRISM_CHECK_LT(index, table_.size());
  return table_[index].codec;
}

Precision BlobFileReader::BlobPrecision(size_t index) const {
  PRISM_CHECK_LT(index, table_.size());
  return table_[index].precision;
}

uint32_t BlobFileReader::BlobQuantGroup(size_t index) const {
  PRISM_CHECK_LT(index, table_.size());
  return table_[index].quant_group;
}

Status BlobFileReader::ReadBlob(size_t index, std::span<uint8_t> dest,
                                const std::atomic<bool>* cancel) {
  PRISM_CHECK_LT(index, table_.size());
  const BlobEntry& entry = table_[index];
  PRISM_CHECK_EQ(static_cast<int64_t>(dest.size()), entry.size);
  const size_t stored_size = static_cast<size_t>(entry.stored_size);
  const std::span<uint8_t> stored = dest.last(stored_size);
  PRISM_RETURN_IF_ERROR(ssd_->Read(entry.offset, stored, cancel));
  blob_reads_[index].fetch_add(1, std::memory_order_relaxed);
  if (blob_codec::Crc32c(stored) != entry.crc32c) {
    return Status::DataLoss("blob " + std::to_string(index) + " fails its CRC32C in " +
                            ssd_->path());
  }
  if (entry.codec == BlobCodec::kRaw) {
    return Status::Ok();
  }
  return blob_codec::DecodeInPlace(entry.codec, dest, stored_size);
}

int64_t BlobFileReader::BlobReads(size_t index) const {
  PRISM_CHECK_LT(index, blob_reads_.size());
  return blob_reads_[index].load(std::memory_order_relaxed);
}

Status BlobFileReader::ReadBlobRanges(
    size_t index, std::span<const std::pair<int64_t, std::span<uint8_t>>> ranges) {
  PRISM_CHECK_LT(index, table_.size());
  const BlobEntry& entry = table_[index];
  PRISM_CHECK(entry.codec == BlobCodec::kRaw);
  std::vector<std::pair<int64_t, std::span<uint8_t>>> absolute;
  absolute.reserve(ranges.size());
  for (const auto& [range_offset, dest] : ranges) {
    PRISM_CHECK_LE(range_offset + static_cast<int64_t>(dest.size()), entry.size);
    absolute.emplace_back(entry.offset + range_offset, dest);
  }
  return ssd_->ReadScattered(absolute);
}

}  // namespace prism
