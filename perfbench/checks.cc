#include "checks.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

void NamespaceModel::Apply(const pfs::TraceRecord& r) {
  using pfs::TraceOp;
  universe_.insert(r.path);
  switch (r.op) {
    case TraceOp::kOpen:
    case TraceOp::kRead:
      files_.try_emplace(r.path, 0);
      break;
    case TraceOp::kWrite: {
      uint64_t& size = files_.try_emplace(r.path, 0).first->second;
      size = std::max(size, r.offset + r.length);
      break;
    }
    case TraceOp::kTruncate:
      files_[r.path] = r.length;
      break;
    case TraceOp::kUnlink:
      files_.erase(r.path);
      break;
    case TraceOp::kRename: {
      universe_.insert(r.path2);
      auto it = files_.find(r.path);
      if (it != files_.end()) {
        files_[r.path2] = it->second;
        files_.erase(r.path);
      }
      break;
    }
    case TraceOp::kClose:
    case TraceOp::kStat:
    case TraceOp::kMkdir:
    case TraceOp::kRmdir:
      break;
  }
}

std::optional<uint64_t> NamespaceModel::SizeOf(const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<std::string> CheckNamespace(const NamespaceModel& model,
                                        const std::map<std::string, Observed>& observed) {
  std::vector<std::string> errors;
  for (const auto& [path, got] : observed) {
    const std::optional<uint64_t> want = model.SizeOf(path);
    if (want.has_value() != got.has_value()) {
      errors.push_back(path + ": model says " + (want ? "exists" : "absent") +
                       ", system says " + (got ? "exists" : "absent"));
    } else if (want && *want != *got) {
      errors.push_back(path + ": model size " + std::to_string(*want) + ", system size " +
                       std::to_string(*got));
    }
  }
  return errors;
}

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// FillContent writes ContentWord(base, off) at every offset `off` that is a
// multiple of 8.
uint64_t ContentBase(uint64_t seed, uint64_t file_id, uint64_t version) {
  return SplitMix(seed ^ SplitMix(file_id ^ SplitMix(version)));
}

uint64_t ContentWord(uint64_t base, size_t off) { return SplitMix(base + off); }

}  // namespace

void FillContent(uint64_t seed, uint64_t file_id, uint64_t version, std::byte* out,
                 size_t len) {
  const uint64_t base = ContentBase(seed, file_id, version);
  for (size_t off = 0; off < len; off += 8) {
    const uint64_t word = ContentWord(base, off);
    std::memcpy(out + off, &word, std::min<size_t>(8, len - off));
  }
}

size_t ContentModel::FirstDifference(uint64_t file_id, const std::byte* got) const {
  const size_t len = size(file_id);
  const uint64_t base = ContentBase(seed_, file_id, version(file_id));
  for (size_t off = 0; off < len; off += 8) {
    std::byte want[8];
    const uint64_t word = ContentWord(base, off);
    std::memcpy(want, &word, sizeof(want));
    if (flip_ && flip_->first == file_id && flip_->second / 8 == off / 8) {
      want[flip_->second % 8] ^= std::byte{0x01};
    }
    const size_t n = std::min<size_t>(8, len - off);
    if (std::memcmp(got + off, want, n) != 0) {
      size_t i = 0;
      while (got[off + i] == want[i]) {
        ++i;
      }
      return off + i;
    }
  }
  return len;
}

std::vector<std::string> CheckContent(const ContentModel& model, uint64_t file_id,
                                      const std::byte* got, size_t got_len) {
  const std::string name = "file " + std::to_string(file_id);
  if (got_len != model.size(file_id)) {
    return {name + ": read " + std::to_string(got_len) + " bytes, model has " +
            std::to_string(model.size(file_id))};
  }
  const size_t i = model.FirstDifference(file_id, got);
  if (i == got_len) {
    return {};
  }
  return {name + ": first wrong byte at offset " + std::to_string(i) + " (version " +
          std::to_string(model.version(file_id)) + ")"};
}

std::vector<std::string> CheckListing(const std::string& dir,
                                      const std::set<std::string>& expected,
                                      const std::vector<std::string>& listed) {
  const std::set<std::string> got(listed.begin(), listed.end());
  if (got == expected && got.size() == listed.size()) {
    return {};
  }
  return {dir + ": listing has " + std::to_string(listed.size()) +
          " entries, model has " + std::to_string(expected.size()) +
          ", or the names differ"};
}

std::vector<std::string> CheckByteChain(uint64_t cache_cleaned_bytes,
                                        uint64_t layout_bytes,
                                        std::optional<uint64_t> bus_bytes) {
  std::vector<std::string> errors;
  if (cache_cleaned_bytes > layout_bytes) {
    errors.push_back("cache marked " + std::to_string(cache_cleaned_bytes) +
                     " bytes clean but the layouts wrote only " +
                     std::to_string(layout_bytes));
  }
  if (bus_bytes && layout_bytes > *bus_bytes) {
    errors.push_back("layouts wrote " + std::to_string(layout_bytes) +
                     " bytes but the busses carried only " + std::to_string(*bus_bytes));
  }
  return errors;
}

}  // namespace perfbench
