#include "store/version_log.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <utility>

#include "core/serialization.h"
#include "fault/failpoint.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/tree_store.h"
#include "store/nested_set.h"
#include "util/crc32.h"
#include "util/logging.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace oct {
namespace store {

namespace fs = std::filesystem;

namespace {

constexpr char kSegmentMagic[] = "octstore-segment v1\n";
constexpr char kManifestMagic[] = "octstore-manifest v1";
constexpr char kManifestName[] = "MANIFEST";

obs::Counter* StoreCounter(const char* name) {
  return obs::MetricsRegistry::Default()->GetCounter(name);
}

/// Flushes `path` (file data, or directory entries) to stable storage.
void SyncPath(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

/// Writes `contents` to `path` (truncating), then fsyncs. The write helper
/// checks the final flush, so a full disk fails here rather than silently
/// at close; a failed write removes the partial file.
Status WriteAndSync(const std::string& path, const std::string& contents) {
  Status written = obs::WriteStringToFile(path, contents);
  if (!written.ok()) {
    std::error_code ec;
    fs::remove(path, ec);
    return written;
  }
  SyncPath(path);
  return Status::OK();
}

/// Appends `data` to `path` (creating it), then fsyncs. Append + fsync is
/// the segment write path; the manifest rename is what commits.
Status AppendToFile(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::Internal("cannot open segment for append: " + path);
  }
  const size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool flushed = std::fflush(f) == 0;
#if defined(__unix__) || defined(__APPLE__)
  ::fsync(::fileno(f));
#endif
  std::fclose(f);
  if (written != data.size() || !flushed) {
    return Status::Internal("short append to segment " + path);
  }
  return Status::OK();
}

std::string SegmentFileName(uint32_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg-%06u.log", index);
  return buf;
}

/// One framed record as parsed out of a segment (or a shipped byte string).
struct Frame {
  TreeVersion version = 0;
  TreeVersion parent = 0;
  uint32_t payload_crc = 0;
  std::string note;
  /// Offsets within the buffer the frame was parsed from.
  size_t payload_offset = 0;
  size_t payload_bytes = 0;
  size_t total_bytes = 0;  // Header line + newline + payload.
};

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char ch : line) {
    if (ch == ' ') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

Result<uint64_t> ParseUint(const std::string& s, int base = 10) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (end == s.c_str() || *end != '\0') {
    return Status::DataLoss("bad integer: " + s);
  }
  return static_cast<uint64_t>(v);
}

/// Renders the framed record: header line + nested-set payload.
std::string FrameRecord(TreeVersion version, TreeVersion parent,
                        const std::string& note, const std::string& payload) {
  char header[192];
  std::snprintf(header, sizeof(header),
                "record %" PRIu64 " %" PRIu64 " %zu %08x %s\n",
                static_cast<uint64_t>(version), static_cast<uint64_t>(parent),
                payload.size(), Crc32(payload), EscapeLabel(note).c_str());
  return std::string(header) + payload;
}

/// Parses (and CRC-verifies) one frame starting at `pos` in `buf`. Any
/// malformation — including a payload running past the buffer — is
/// kDataLoss so callers treat it as a torn tail.
Result<Frame> ParseFrameAt(const std::string& buf, size_t pos) {
  const size_t eol = buf.find('\n', pos);
  if (eol == std::string::npos) {
    return Status::DataLoss("record header truncated");
  }
  const std::vector<std::string> tok = Tokens(buf.substr(pos, eol - pos));
  if (tok.size() != 6 || tok[0] != "record") {
    return Status::DataLoss("bad record header");
  }
  Frame frame;
  OCT_ASSIGN_OR_RETURN(const uint64_t version, ParseUint(tok[1]));
  OCT_ASSIGN_OR_RETURN(const uint64_t parent, ParseUint(tok[2]));
  OCT_ASSIGN_OR_RETURN(const uint64_t bytes, ParseUint(tok[3]));
  OCT_ASSIGN_OR_RETURN(const uint64_t crc, ParseUint(tok[4], 16));
  frame.version = version;
  frame.parent = parent;
  frame.payload_crc = static_cast<uint32_t>(crc);
  frame.note = UnescapeLabel(tok[5]);
  frame.payload_offset = eol + 1;
  frame.payload_bytes = bytes;
  frame.total_bytes = (eol + 1 - pos) + bytes;
  if (frame.payload_offset + frame.payload_bytes > buf.size()) {
    return Status::DataLoss("record payload truncated");
  }
  if (Crc32(buf.data() + frame.payload_offset, frame.payload_bytes) !=
      frame.payload_crc) {
    return Status::DataLoss("record payload checksum mismatch");
  }
  return frame;
}

std::string RenderManifest(const std::vector<LogEntry>& entries) {
  std::string body(kManifestMagic);
  body += "\nentries " + std::to_string(entries.size()) + "\n";
  for (const LogEntry& e : entries) {
    char line[224];
    std::snprintf(line, sizeof(line),
                  "entry %" PRIu64 " %" PRIu64 " %u %" PRIu64 " %" PRIu64
                  " %08x %s\n",
                  static_cast<uint64_t>(e.version),
                  static_cast<uint64_t>(e.parent), e.segment, e.offset,
                  e.bytes, e.payload_crc, EscapeLabel(e.note).c_str());
    body += line;
  }
  char crc_line[32];
  std::snprintf(crc_line, sizeof(crc_line), "crc %08x\n", Crc32(body));
  return body + crc_line;
}

Result<std::vector<LogEntry>> ParseManifest(const std::string& text) {
  // The trailing "crc <hex>\n" line covers every byte before it.
  if (text.empty() || text.back() != '\n') {
    return Status::DataLoss("manifest not newline-terminated");
  }
  const size_t crc_line_start = text.rfind("crc ", text.size() - 1);
  if (crc_line_start == std::string::npos ||
      (crc_line_start != 0 && text[crc_line_start - 1] != '\n')) {
    return Status::DataLoss("manifest missing crc trailer");
  }
  const std::string crc_tok =
      text.substr(crc_line_start + 4, text.size() - crc_line_start - 5);
  OCT_ASSIGN_OR_RETURN(const uint64_t expected, ParseUint(crc_tok, 16));
  if (Crc32(text.data(), crc_line_start) != expected) {
    return Status::DataLoss("manifest checksum mismatch");
  }

  size_t pos = 0;
  auto next_line = [&](std::string* line) -> bool {
    if (pos >= crc_line_start) return false;
    const size_t eol = text.find('\n', pos);
    line->assign(text, pos, eol - pos);
    pos = eol + 1;
    return true;
  };
  std::string line;
  if (!next_line(&line) || line != kManifestMagic) {
    return Status::DataLoss("bad manifest magic");
  }
  if (!next_line(&line)) return Status::DataLoss("manifest missing header");
  const std::vector<std::string> header = Tokens(line);
  if (header.size() != 2 || header[0] != "entries") {
    return Status::DataLoss("bad manifest header");
  }
  OCT_ASSIGN_OR_RETURN(const uint64_t count, ParseUint(header[1]));
  std::vector<LogEntry> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!next_line(&line)) return Status::DataLoss("manifest truncated");
    const std::vector<std::string> tok = Tokens(line);
    if (tok.size() != 8 || tok[0] != "entry") {
      return Status::DataLoss("bad manifest entry: " + line);
    }
    LogEntry e;
    OCT_ASSIGN_OR_RETURN(const uint64_t version, ParseUint(tok[1]));
    OCT_ASSIGN_OR_RETURN(const uint64_t parent, ParseUint(tok[2]));
    OCT_ASSIGN_OR_RETURN(const uint64_t segment, ParseUint(tok[3]));
    OCT_ASSIGN_OR_RETURN(const uint64_t offset, ParseUint(tok[4]));
    OCT_ASSIGN_OR_RETURN(const uint64_t bytes, ParseUint(tok[5]));
    OCT_ASSIGN_OR_RETURN(const uint64_t crc, ParseUint(tok[6], 16));
    e.version = version;
    e.parent = parent;
    e.segment = static_cast<uint32_t>(segment);
    e.offset = offset;
    e.bytes = bytes;
    e.payload_crc = static_cast<uint32_t>(crc);
    e.note = UnescapeLabel(tok[7]);
    entries.push_back(std::move(e));
  }
  return entries;
}

}  // namespace

VersionLog::VersionLog(std::string dir, VersionLogOptions options)
    : dir_(std::move(dir)), options_(options) {}

Result<std::unique_ptr<VersionLog>> VersionLog::Open(
    const std::string& dir, const VersionLogOptions& options) {
  OCT_SPAN("store/open_log");
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create log dir " + dir + ": " +
                            ec.message());
  }
  std::unique_ptr<VersionLog> log(new VersionLog(dir, options));
  {
    std::lock_guard<std::mutex> lock(log->mu_);
    OCT_RETURN_NOT_OK(log->OpenLocked());
  }
  return log;
}

Status VersionLog::OpenLocked() {
  // The manifest, when it parses and checksums, is the authority: exactly
  // the records it names are committed, each re-verified in place (framing,
  // payload CRC, lineage fields) before the log trusts it. Trailing bytes
  // beyond the last committed record — appended by a writer that died
  // before the manifest rename — are truncated away, and segments newer
  // than the last committed one are deleted outright. A missing or corrupt
  // manifest degrades to best-effort: quarantine it and accept the longest
  // CRC-verified lineage a sequential segment scan yields.
  bool have_manifest = false;
  std::vector<LogEntry> manifest_entries;
  const std::string manifest_path = (fs::path(dir_) / kManifestName).string();
  if (fs::exists(manifest_path)) {
    auto contents = ReadFile(manifest_path);
    Result<std::vector<LogEntry>> parsed =
        contents.ok() ? ParseManifest(contents.value())
                      : Result<std::vector<LogEntry>>(contents.status());
    if (parsed.ok()) {
      have_manifest = true;
      manifest_entries = std::move(parsed).value();
    } else {
      OCT_LOG_WARNING << "quarantining corrupt manifest " << manifest_path
                      << ": " << parsed.status().ToString();
      std::error_code ec;
      fs::rename(manifest_path, manifest_path + std::string(".corrupt"), ec);
      open_report_.manifest_rebuilt = true;
    }
  }

  // Collect segment files, ascending index.
  std::vector<std::pair<uint32_t, std::string>> segments;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string fname = it->path().filename().string();
    unsigned index = 0;
    char trailing = '\0';
    if (std::sscanf(fname.c_str(), "seg-%u.log%c", &index, &trailing) == 1) {
      segments.emplace_back(index, it->path().string());
    }
  }
  if (ec) {
    return Status::Internal("cannot scan log dir " + dir_ + ": " +
                            ec.message());
  }
  std::sort(segments.begin(), segments.end());
  open_report_.segments_scanned = segments.size();
  if (!have_manifest && !segments.empty()) {
    open_report_.manifest_rebuilt = true;
  }

  const size_t magic_len = sizeof(kSegmentMagic) - 1;
  bool dirty = open_report_.manifest_rebuilt;
  entries_.clear();

  // Segment contents, loaded on demand (missing/bad-magic files load as
  // empty and fail every entry check).
  std::map<uint32_t, std::string> cache;
  auto segment_buf = [&](uint32_t index) -> const std::string& {
    auto it = cache.find(index);
    if (it != cache.end()) return it->second;
    std::string buf;
    for (const auto& [seg_index, path] : segments) {
      if (seg_index != index) continue;
      auto contents = ReadFile(path);
      if (contents.ok()) buf = std::move(contents).value();
      break;
    }
    if (buf.size() < magic_len ||
        buf.compare(0, magic_len, kSegmentMagic) != 0) {
      buf.clear();
    }
    return cache.emplace(index, std::move(buf)).first->second;
  };

  if (have_manifest) {
    // Accept the longest prefix of manifest entries whose on-disk records
    // verify; a chain break invalidates everything after it.
    for (const LogEntry& e : manifest_entries) {
      const std::string& buf = segment_buf(e.segment);
      bool ok = e.offset + e.bytes <= buf.size();
      if (ok) {
        auto frame = ParseFrameAt(buf, e.offset);
        ok = frame.ok() && frame.value().version == e.version &&
             frame.value().parent == e.parent &&
             frame.value().payload_crc == e.payload_crc &&
             frame.value().total_bytes == e.bytes;
      }
      const TreeVersion last = entries_.empty() ? 0 : entries_.back().version;
      if (!ok || (!entries_.empty() &&
                  (e.parent != last || e.version <= last))) {
        OCT_LOG_WARNING << "dropping manifest entry v" << e.version
                        << " and successors: record does not verify";
        open_report_.records_quarantined +=
            manifest_entries.size() - entries_.size();
        dirty = true;
        break;
      }
      entries_.push_back(e);
    }
  } else {
    // Rebuild: walk every segment in order, accept the CRC-verified chain.
    for (const auto& [index, path] : segments) {
      const std::string& buf = segment_buf(index);
      if (buf.empty() && fs::exists(path)) {
        OCT_LOG_WARNING << "quarantining segment with bad magic: " << path;
        std::error_code rename_ec;
        fs::rename(path, path + std::string(".corrupt"), rename_ec);
        ++open_report_.records_quarantined;
        dirty = true;
        continue;
      }
      size_t pos = magic_len;
      while (pos < buf.size()) {
        auto frame = ParseFrameAt(buf, pos);
        if (!frame.ok()) {
          // Torn tail (crash mid-append, or bit rot): drop the remainder.
          OCT_LOG_WARNING << "dropping torn tail of " << path << " at byte "
                          << pos << ": " << frame.status().ToString();
          ++open_report_.torn_records_dropped;
          dirty = true;
          break;
        }
        const Frame& f = frame.value();
        const TreeVersion last =
            entries_.empty() ? 0 : entries_.back().version;
        if (entries_.empty() || (f.parent == last && f.version > last)) {
          LogEntry e;
          e.version = f.version;
          e.parent = f.parent;
          e.segment = index;
          e.offset = pos;
          e.bytes = f.total_bytes;
          e.payload_crc = f.payload_crc;
          e.note = f.note;
          entries_.push_back(std::move(e));
        } else {
          OCT_LOG_WARNING << "dropping lineage-breaking record v" << f.version
                          << " (parent " << f.parent << ", have " << last
                          << ") in " << path;
          ++open_report_.records_quarantined;
          dirty = true;
        }
        pos += f.total_bytes;
      }
    }
  }

  // Truncate everything beyond the last committed record: trailing bytes of
  // its segment, and whole segments past it (uncommitted appends from a
  // writer that died before its manifest rename).
  const uint32_t last_segment = entries_.empty()
                                    ? (segments.empty() ? 1 : 1)
                                    : entries_.back().segment;
  uint64_t committed_end = magic_len;
  for (const LogEntry& e : entries_) {
    if (e.segment == last_segment) {
      committed_end = std::max(committed_end, e.offset + e.bytes);
    }
  }
  for (const auto& [index, path] : segments) {
    if (!fs::exists(path)) continue;
    if (index > last_segment || (entries_.empty() && index >= last_segment)) {
      std::error_code rm_ec;
      const uint64_t size = fs::file_size(path, rm_ec);
      if (!rm_ec && size > magic_len) ++open_report_.torn_records_dropped;
      fs::remove(path, rm_ec);
      dirty = true;
      continue;
    }
    if (index == last_segment) {
      std::error_code size_ec;
      const uint64_t size = fs::file_size(path, size_ec);
      if (!size_ec && size > committed_end) {
        ++open_report_.torn_records_dropped;
        std::error_code trunc_ec;
        fs::resize_file(path, committed_end, trunc_ec);
        if (trunc_ec) {
          return Status::Internal("cannot truncate torn segment " + path +
                                  ": " + trunc_ec.message());
        }
        SyncPath(path);
        dirty = true;
      }
    }
  }
  // Drop stale .tmp manifests from a crashed writer.
  {
    std::error_code rm_ec;
    fs::remove(manifest_path + std::string(".tmp"), rm_ec);
  }

  active_segment_ = last_segment;
  active_segment_bytes_ = 0;
  const std::string active_path =
      (fs::path(dir_) / SegmentFileName(active_segment_)).string();
  if (fs::exists(active_path)) {
    std::error_code size_ec;
    const uint64_t size = fs::file_size(active_path, size_ec);
    if (!size_ec) active_segment_bytes_ = size;
  }

  if (dirty) {
    OCT_RETURN_NOT_OK(WriteManifestLocked());
  }
  open_report_.entries = entries_.size();
  open_report_.latest_version =
      entries_.empty() ? 0 : entries_.back().version;
  return Status::OK();
}

Status VersionLog::WriteManifestLocked() {
  const std::string final_path = (fs::path(dir_) / kManifestName).string();
  const std::string tmp_path = final_path + ".tmp";
  OCT_RETURN_NOT_OK(WriteAndSync(tmp_path, RenderManifest(entries_)));
  OCT_RETURN_NOT_OK(OCT_FAILPOINT("store.manifest.commit"));
  std::error_code ec;
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    fs::remove(tmp_path, ec);
    return Status::Internal("cannot rename manifest into place: " +
                            ec.message());
  }
  SyncPath(dir_);  // The rename is the commit point; make it durable.
  return Status::OK();
}

Status VersionLog::CommitFramedLocked(const std::string& frame,
                                      TreeVersion version, TreeVersion parent,
                                      uint32_t payload_crc,
                                      uint64_t payload_bytes,
                                      const std::string& note) {
  static obs::Counter* rolled = StoreCounter("store.segments_rolled");
  // Roll once the active segment holds records and would overflow.
  const size_t magic_len = sizeof(kSegmentMagic) - 1;
  if (active_segment_bytes_ > magic_len &&
      active_segment_bytes_ + frame.size() > options_.segment_bytes) {
    ++active_segment_;
    active_segment_bytes_ = 0;
    rolled->Increment();
  }
  const std::string path =
      (fs::path(dir_) / SegmentFileName(active_segment_)).string();
  // Offset comes from the real file size, not the tracked counter: a prior
  // commit that appended its record but failed before the manifest rename
  // leaves orphan bytes on disk, and the next record must land after them.
  uint64_t file_size = 0;
  if (fs::exists(path)) {
    std::error_code size_ec;
    const uint64_t size = fs::file_size(path, size_ec);
    if (!size_ec) file_size = size;
  }
  std::string write = frame;
  if (file_size < magic_len) {
    // Nothing durable in the file yet (at most a torn magic): restart it.
    std::error_code rm_ec;
    if (file_size > 0) fs::remove(path, rm_ec);
    write = std::string(kSegmentMagic) + frame;
    file_size = 0;
  }
  const uint64_t offset = file_size == 0 ? magic_len : file_size;
  OCT_RETURN_NOT_OK(AppendToFile(path, write));
  active_segment_bytes_ = offset + frame.size();
  // Crash site between the durable segment append and the manifest commit:
  // dying here leaves an orphan record the next Open() truncates away.
  OCT_RETURN_NOT_OK(OCT_FAILPOINT("store.commit"));
  LogEntry e;
  e.version = version;
  e.parent = parent;
  e.segment = active_segment_;
  e.offset = offset;
  e.bytes = frame.size();
  e.payload_crc = payload_crc;
  e.note = note;
  (void)payload_bytes;
  entries_.push_back(std::move(e));
  Status manifest = WriteManifestLocked();
  if (!manifest.ok()) {
    // The record is an uncommitted orphan; forget it (Open() would too).
    entries_.pop_back();
    return manifest;
  }
  active_segment_bytes_ = offset + frame.size();
  return Status::OK();
}

Status VersionLog::Commit(const CategoryTree& tree, TreeVersion version,
                          const std::string& note) {
  OCT_SPAN("store/commit");
  static obs::Counter* commits = StoreCounter("store.commits");
  static obs::Counter* failures = StoreCounter("store.commit_failures");
  static obs::Histogram* commit_us =
      obs::MetricsRegistry::Default()->GetHistogram(
          "store.commit_us", "version-log commit latency", "us");
  const auto t0 = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  auto fail = [&](Status s) {
    failures->Increment();
    return s;
  };
  Status armed = OCT_FAILPOINT("store.segment.append");
  if (!armed.ok()) return fail(std::move(armed));
  const TreeVersion latest = entries_.empty() ? 0 : entries_.back().version;
  if (version <= latest) {
    return fail(Status::InvalidArgument(
        "commit version " + std::to_string(version) +
        " not beyond latest " + std::to_string(latest)));
  }
  const std::string payload = SerializeNestedSet(EncodeNestedSet(tree));
  const std::string frame = FrameRecord(version, latest, note, payload);
  Status s = CommitFramedLocked(frame, version, latest, Crc32(payload),
                                payload.size(), note);
  if (!s.ok()) return fail(std::move(s));
  commits->Increment();
  commit_us->Record(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  return Status::OK();
}

const LogEntry* VersionLog::FindEntryLocked(TreeVersion version) const {
  for (const LogEntry& e : entries_) {
    if (e.version == version) return &e;
  }
  return nullptr;
}

Result<std::string> VersionLog::RecordBytesLocked(TreeVersion version) const {
  OCT_RETURN_NOT_OK(OCT_FAILPOINT("store.record.read"));
  const LogEntry* entry = FindEntryLocked(version);
  if (entry == nullptr) {
    return Status::NotFound("version " + std::to_string(version) +
                            " not in log " + dir_);
  }
  const std::string path =
      (fs::path(dir_) / SegmentFileName(entry->segment)).string();
  OCT_ASSIGN_OR_RETURN(const std::string buf, ReadFile(path));
  if (entry->offset + entry->bytes > buf.size()) {
    return Status::DataLoss("segment shorter than manifest entry: " + path);
  }
  std::string record = buf.substr(entry->offset, entry->bytes);
  // Re-verify framing + payload CRC so bit rot since open cannot escape.
  OCT_ASSIGN_OR_RETURN(const Frame frame, ParseFrameAt(record, 0));
  if (frame.total_bytes != record.size() || frame.version != version) {
    return Status::DataLoss("record does not match manifest entry: " + path);
  }
  return record;
}

Result<std::string> VersionLog::RecordBytes(TreeVersion version) const {
  std::lock_guard<std::mutex> lock(mu_);
  return RecordBytesLocked(version);
}

Result<CategoryTree> VersionLog::OpenAt(TreeVersion version) const {
  OCT_SPAN("store/open_at");
  OCT_ASSIGN_OR_RETURN(const std::string record, RecordBytes(version));
  const Frame frame = ParseFrameAt(record, 0).value();  // Verified above.
  OCT_ASSIGN_OR_RETURN(
      const NestedSetEncoding enc,
      ParseNestedSet(record.substr(frame.payload_offset,
                                   frame.payload_bytes)));
  return DecodeNestedSet(enc);
}

Result<CategoryTree> VersionLog::OpenLatest() const {
  const TreeVersion latest = LatestVersion();
  if (latest == 0) {
    return Status::NotFound("version log " + dir_ + " is empty");
  }
  return OpenAt(latest);
}

TreeVersion VersionLog::LatestVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty() ? 0 : entries_.back().version;
}

std::string VersionLog::LatestNote() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty() ? std::string() : entries_.back().note;
}

std::vector<LogEntry> VersionLog::Lineage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

Status VersionLog::InstallRecord(const std::string& record_bytes) {
  OCT_SPAN("store/install_record");
  std::lock_guard<std::mutex> lock(mu_);
  OCT_ASSIGN_OR_RETURN(const Frame frame, ParseFrameAt(record_bytes, 0));
  if (frame.total_bytes != record_bytes.size()) {
    return Status::DataLoss("record carries trailing bytes");
  }
  // Structural verification before anything touches disk: a corrupt-but-
  // CRC-valid payload must never install.
  OCT_ASSIGN_OR_RETURN(
      const NestedSetEncoding enc,
      ParseNestedSet(record_bytes.substr(frame.payload_offset,
                                         frame.payload_bytes)));
  (void)enc;
  const TreeVersion latest = entries_.empty() ? 0 : entries_.back().version;
  if (frame.version <= latest) {
    const LogEntry* existing = FindEntryLocked(frame.version);
    if (existing != nullptr && existing->payload_crc == frame.payload_crc &&
        existing->parent == frame.parent) {
      return Status::OK();  // Idempotent re-ship.
    }
    return Status::DataLoss(
        "lineage divergence at v" + std::to_string(frame.version) +
        (existing != nullptr ? " (payload differs)" : " (version compacted)"));
  }
  if (!entries_.empty() && frame.parent != latest) {
    if (frame.parent > latest) {
      return Status::OutOfRange("lagging: record v" +
                                std::to_string(frame.version) + " needs v" +
                                std::to_string(frame.parent) + ", have v" +
                                std::to_string(latest));
    }
    return Status::DataLoss("lineage divergence: record v" +
                            std::to_string(frame.version) + " chains to v" +
                            std::to_string(frame.parent) + ", have v" +
                            std::to_string(latest));
  }
  return CommitFramedLocked(record_bytes, frame.version, frame.parent,
                            frame.payload_crc, frame.payload_bytes,
                            frame.note);
}

Status VersionLog::Compact() {
  OCT_SPAN("store/compact");
  static obs::Counter* compactions = StoreCounter("store.compactions");
  std::lock_guard<std::mutex> lock(mu_);
  const size_t keep = std::max<size_t>(1, options_.compact_keep);
  if (entries_.size() <= keep) return Status::OK();

  // Copy the kept records into one fresh segment, commit a manifest that
  // points at it, then delete the old segments. A crash anywhere leaves
  // either the old or the new manifest — both name verifiable records.
  std::vector<LogEntry> kept(entries_.end() - keep, entries_.end());
  std::string content(kSegmentMagic);
  for (LogEntry& e : kept) {
    OCT_ASSIGN_OR_RETURN(const std::string record,
                         RecordBytesLocked(e.version));
    e.offset = content.size();
    e.bytes = record.size();
    content += record;
  }
  const uint32_t new_segment = active_segment_ + 1;
  for (LogEntry& e : kept) e.segment = new_segment;
  const std::string new_path =
      (fs::path(dir_) / SegmentFileName(new_segment)).string();
  OCT_RETURN_NOT_OK(WriteAndSync(new_path, content));

  std::vector<LogEntry> old_entries = std::move(entries_);
  entries_ = std::move(kept);
  Status manifest = WriteManifestLocked();
  if (!manifest.ok()) {
    entries_ = std::move(old_entries);
    std::error_code ec;
    fs::remove(new_path, ec);
    return manifest;
  }
  for (const LogEntry& e : old_entries) {
    if (e.segment == new_segment) continue;
    std::error_code ec;
    fs::remove((fs::path(dir_) / SegmentFileName(e.segment)).string(), ec);
  }
  active_segment_ = new_segment;
  active_segment_bytes_ = content.size();
  compactions->Increment();
  return Status::OK();
}

Result<WarmStartReport> WarmStart(VersionLog* log,
                                  serve::TreeStore* tree_store) {
  OCT_SPAN("store/warm_start");
  static obs::Counter* warm_starts = StoreCounter("store.warm_starts");
  WarmStartReport report;
  report.log_version = log->LatestVersion();
  report.log_entries = log->Lineage().size();
  if (report.log_version > 0) {
    OCT_ASSIGN_OR_RETURN(CategoryTree tree, log->OpenLatest());
    const auto snap = tree_store->Publish(
        std::move(tree), "warmstart:v" + std::to_string(report.log_version));
    report.published_version = snap->version();
  }
  // Future publishes commit under log version = store version + base, so
  // the log version sequence keeps ascending across process generations
  // (the log may be at v7 while the fresh store restarts at v1).
  const TreeVersion base =
      report.log_version > report.published_version
          ? report.log_version - report.published_version
          : 0;
  tree_store->SetPublishHook([log, base](const serve::TreeSnapshot& snap) {
    const Status s =
        log->Commit(snap.tree(), snap.version() + base, snap.note());
    if (!s.ok()) {
      OCT_LOG_WARNING << "version-log commit for publish v" << snap.version()
                      << " failed: " << s.ToString();
    }
  });
  warm_starts->Increment();
  return report;
}

}  // namespace store
}  // namespace oct
