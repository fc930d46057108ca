// The benchmark's correctness checks, computed apart from the program:
//
//   * NamespaceModel: the size and existence of every file after a trace
//     replay, from the completed operations applied in completion order.
//   * ContentModel: the exact bytes of every file of the on-line workload,
//     regenerated from the version the benchmark itself last wrote.
//   * CheckByteChain: bytes the cache marked clean <= bytes the layouts
//     wrote <= bytes the simulated busses carried.
//
// Each check returns the list of its violations (empty = passed), so the
// self-tests (selftest.py) can feed it broken inputs and see it fail.
#ifndef PFS_PERFBENCH_CHECKS_H_
#define PFS_PERFBENCH_CHECKS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "trace/trace.h"

namespace perfbench {

class NamespaceModel {
 public:
  // Applies one completed trace operation with the replayer's semantics:
  // opening (or writing, truncating) a missing file creates it.
  void Apply(const pfs::TraceRecord& r);

  // Every path the replay referenced, existing or not.
  const std::set<std::string>& universe() const { return universe_; }
  // Model size of `path`, or nullopt when the model says it does not exist.
  std::optional<uint64_t> SizeOf(const std::string& path) const;
  // Test hook: overrides a file's model size.
  void SetSizeForTest(const std::string& path, uint64_t size) { files_[path] = size; }

 private:
  std::map<std::string, uint64_t> files_;
  std::set<std::string> universe_;
};

// The size the system reports for a path, or nullopt when it says the path
// does not exist.
using Observed = std::optional<uint64_t>;
std::vector<std::string> CheckNamespace(const NamespaceModel& model,
                                        const std::map<std::string, Observed>& observed);

// Deterministic file contents: the bytes of version `version` of file
// `file_id` under workload seed `seed`.
void FillContent(uint64_t seed, uint64_t file_id, uint64_t version, std::byte* out,
                 size_t len);

// The version of every file of the on-line workload that the benchmark last
// wrote. The file's bytes are FillContent of that version, so the model keeps
// no copy of them.
class ContentModel {
 public:
  ContentModel(uint64_t seed, std::vector<uint64_t> sizes)
      : seed_(seed), sizes_(std::move(sizes)), versions_(sizes_.size(), 0) {}

  void Written(uint64_t file_id, uint64_t version) { versions_.at(file_id) = version; }
  uint64_t version(uint64_t file_id) const { return versions_.at(file_id); }
  uint64_t size(uint64_t file_id) const { return sizes_.at(file_id); }
  // Offset of the first byte of `got` (the file's whole contents) that
  // differs from the model's, or size(file_id) when none does.
  size_t FirstDifference(uint64_t file_id, const std::byte* got) const;
  // Test hook: the model expects one byte of the file flipped.
  void FlipByteForTest(uint64_t file_id, size_t offset) { flip_ = {file_id, offset}; }

 private:
  uint64_t seed_;
  std::vector<uint64_t> sizes_;
  std::vector<uint64_t> versions_;
  std::optional<std::pair<uint64_t, size_t>> flip_;
};

// Empty when `got` equals the model's bytes for `file_id`; otherwise one
// message naming the first differing offset.
std::vector<std::string> CheckContent(const ContentModel& model, uint64_t file_id,
                                      const std::byte* got, size_t got_len);

// Empty when `listed` holds exactly the names in `expected`.
std::vector<std::string> CheckListing(const std::string& dir,
                                      const std::set<std::string>& expected,
                                      const std::vector<std::string>& listed);

// `bus_bytes` is nullopt where no simulated bus exists (file-backed disks).
std::vector<std::string> CheckByteChain(uint64_t cache_cleaned_bytes,
                                        uint64_t layout_bytes,
                                        std::optional<uint64_t> bus_bytes);

}  // namespace perfbench

#endif  // PFS_PERFBENCH_CHECKS_H_
