// Indexed-blob container on top of SimulatedSsd.
//
// Model checkpoints are laid out as a sequence of blobs (embedding table,
// one blob per transformer layer, classifier head) so that the layer streamer
// can fetch exactly one layer's bytes per request. The format (version 3)
// tags every blob with its storage precision, its codec and a checksum:
//
//   [magic u32][version u32][count u64]                          header
//   count × { offset u64, size u64, precision u32, group u32,
//             stored_size u64, codec u32, crc32c u32 }             table
//   blob bytes ...                                                data
//
// `size` is the decoded size. A blob occupies `stored_size` bytes on the
// device, coded with `codec` (src/storage/blob_codec.h), and `crc32c` covers
// those stored bytes. Any other version, including the untagged v1 and the
// unchecked v2 of earlier writers, fails Open with kInvalidArgument.
#ifndef PRISM_SRC_STORAGE_BLOB_FILE_H_
#define PRISM_SRC_STORAGE_BLOB_FILE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/storage/blob_codec.h"
#include "src/storage/ssd.h"
#include "src/tensor/quant.h"

namespace prism {

inline constexpr uint32_t kBlobFileMagic = 0x50524C42;  // "PRLB"
inline constexpr uint32_t kBlobFileVersion = 3;

// One row of the blob table.
struct BlobEntry {
  int64_t offset = 0;
  int64_t size = 0;  // Decoded bytes.
  Precision precision = Precision::kFp32;
  uint32_t quant_group = 0;
  int64_t stored_size = 0;  // Bytes on the device.
  BlobCodec codec = BlobCodec::kRaw;
  uint32_t crc32c = 0;  // Of the stored bytes.
};

class BlobFileWriter {
 public:
  // Writes blobs sequentially through an *unthrottled* SSD handle (checkpoint
  // creation is setup work, not part of any measured experiment).
  explicit BlobFileWriter(const std::string& path);

  // Appends a blob; returns its index. The default overload tags the blob
  // fp32 / group 0 (raw bytes, no quantisation metadata). With a codec other
  // than kRaw the blob is stored coded, unless coding would not shrink it.
  size_t AddBlob(std::span<const uint8_t> bytes);
  size_t AddBlob(std::span<const uint8_t> bytes, Precision precision, uint32_t quant_group,
                 BlobCodec codec = BlobCodec::kRaw);

  // Writes the header + table. Must be called exactly once, after all blobs.
  Status Finish();

 private:
  std::string path_;
  std::unique_ptr<SimulatedSsd> ssd_;
  std::vector<BlobEntry> table_;
  std::vector<uint8_t> scratch_;  // Staged blob bytes until Finish.
  int64_t data_cursor_ = 0;
  bool finished_ = false;
};

class BlobFileReader {
 public:
  // Opens an existing blob file through a throttled simulated device. A
  // header or table that does not describe a well-formed file returns an
  // error status.
  static Result<std::unique_ptr<BlobFileReader>> Open(const std::string& path, SsdConfig config);

  size_t blob_count() const { return table_.size(); }
  // Decoded size: what ReadBlob delivers.
  int64_t BlobSize(size_t index) const;
  // Bytes on the device: what ReadBlob reads and the device model charges.
  int64_t BlobStoredSize(size_t index) const;
  BlobCodec BlobCodecOf(size_t index) const;

  // Per-blob precision tag and quantisation group (0 for fp32 / fp16).
  Precision BlobPrecision(size_t index) const;
  uint32_t BlobQuantGroup(size_t index) const;

  // Reads blob `index` fully into `dest` (must be exactly BlobSize bytes).
  // The stored bytes land in the tail of `dest`, their CRC32C is checked
  // and a coded blob is then decoded in place, so no staging buffer exists.
  // A checksum mismatch or malformed coding returns kDataLoss. A set
  // `*cancel` stops the device read at its next chunk boundary and returns
  // kCancelled, with `dest` undefined (SimulatedSsd::Read).
  Status ReadBlob(size_t index, std::span<uint8_t> dest,
                  const std::atomic<bool>* cancel = nullptr);

  // ReadBlob calls of blob `index` that completed their device read so far:
  // how often a streamed layer was fetched. A cancelled read does not count
  // here; the device's SsdStats count it (bytes moved and cancelled_reads).
  // Range reads do not count.
  int64_t BlobReads(size_t index) const;

  // Reads {offset in blob, dest} ranges of raw blob `index` as a single
  // device request: one embedding row on a cache miss (§4.4), or §4.5's
  // batched unique-token load. Unchecked: the CRC covers the whole blob.
  Status ReadBlobRanges(size_t index,
                        std::span<const std::pair<int64_t, std::span<uint8_t>>> ranges);

  SimulatedSsd& ssd() { return *ssd_; }

 private:
  BlobFileReader() = default;

  std::unique_ptr<SimulatedSsd> ssd_;
  std::vector<BlobEntry> table_;
  std::vector<std::atomic<int64_t>> blob_reads_;  // One per table_ entry.
};

}  // namespace prism

#endif  // PRISM_SRC_STORAGE_BLOB_FILE_H_
