#ifndef TVDP_COMMON_FILE_H_
#define TVDP_COMMON_FILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace tvdp {

/// A sequential output file handle produced by an `Fs`. Durability contract:
/// bytes are guaranteed on stable storage only after a successful `Sync()`;
/// `Close()` flushes userspace buffers but does not imply persistence.
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual Status Append(const uint8_t* data, size_t n) = 0;
  Status Append(const std::vector<uint8_t>& bytes) {
    return Append(bytes.data(), bytes.size());
  }

  /// Forces written data to stable storage (fsync).
  virtual Status Sync() = 0;

  /// Closes the handle; further calls are errors. Idempotent.
  virtual Status Close() = 0;
};

/// Minimal filesystem abstraction: everything the durability layer touches
/// goes through an `Fs` so that tests can interpose fault injection between
/// the storage engine and the real disk.
class Fs {
 public:
  virtual ~Fs() = default;

  /// Opens `path` for writing; truncates when `truncate`, else appends
  /// (creating the file if missing in both modes).
  virtual Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path, bool truncate) = 0;

  /// Reads the entire file.
  virtual Result<std::vector<uint8_t>> ReadAll(const std::string& path) = 0;

  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Remove(const std::string& path) = 0;
  virtual Status Truncate(const std::string& path, uint64_t size) = 0;

  /// fsyncs the directory containing `path` so that renames/creates of that
  /// entry survive a power cut.
  virtual Status SyncDirOf(const std::string& path) = 0;

  /// The process-wide POSIX filesystem.
  static Fs* Default();
};

/// Writes `bytes` to `path` crash-safely: tmp file, fsync, rename over the
/// target, fsync of the containing directory. The tmp file is unlinked on
/// every failure path.
Status AtomicWriteFile(Fs& fs, const std::string& path,
                       const std::vector<uint8_t>& bytes);

/// An in-memory `Fs`: files are byte vectors in one map behind one mutex,
/// so a whole fleet's stores can share it. A handle appends to the file it
/// opened even after that path is renamed over or removed (as on POSIX).
/// `Sync` and `SyncDirOf` do nothing. Wrap it in a `FaultInjectingFs` for
/// faults.
class MemFs : public Fs {
 public:
  Result<std::unique_ptr<WritableFile>> OpenWritable(const std::string& path,
                                                     bool truncate) override;
  Result<std::vector<uint8_t>> ReadAll(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status SyncDirOf(const std::string&) override { return Status::OK(); }

 private:
  std::mutex mutex_;
  std::map<std::string, std::shared_ptr<std::vector<uint8_t>>> files_;
};

/// An `Fs` decorator that injects storage faults for robustness tests:
///
///  * transient errors — the next `n` mutating operations (appends/syncs)
///    fail with kIOError, then behave normally;
///  * short writes — the next append persists only a prefix and reports
///    kIOError, modelling ENOSPC / partial write() returns;
///  * power cut — once total appended bytes reach a chosen offset, all
///    further appended bytes are silently dropped and syncs become no-ops,
///    modelling a crash where the log tail never reached the platter.
///
/// Reads and metadata ops pass through unmodified so that tests can inspect
/// the "disk" state after the fault.
class FaultInjectingFs : public Fs {
 public:
  explicit FaultInjectingFs(Fs* base) : base_(base) {}

  // --- fault configuration ---

  /// The next `n` Append/Sync calls fail with kIOError (state unchanged).
  void InjectErrors(int n) {
    errors_skip_ = 0;
    errors_to_inject_ = n;
  }

  /// Like `InjectErrors`, but lets the next `skip` mutating calls through
  /// unharmed first. Lets a test fault a specific later operation, e.g. the
  /// compaction triggered by an otherwise healthy insert.
  void InjectErrorsAfter(int skip, int n) {
    errors_skip_ = skip;
    errors_to_inject_ = n;
  }

  /// The next Append persists only `prefix_bytes` of its payload, then
  /// returns kIOError.
  void InjectShortWrite(size_t prefix_bytes) {
    short_write_prefix_ = static_cast<int64_t>(prefix_bytes);
  }

  /// Silently drops every appended byte past `offset` (counted across all
  /// files opened through this Fs from now on). Pass a negative value to
  /// disarm.
  void SetPowerCutAfter(int64_t offset) {
    power_cut_offset_ = offset;
    appended_bytes_ = 0;
  }

  /// True once a power cut actually swallowed bytes.
  bool power_cut_hit() const { return power_cut_hit_; }

  // --- counters (for tests/benches) ---
  int64_t append_calls() const { return append_calls_; }
  int64_t sync_calls() const { return sync_calls_; }
  int64_t injected_faults() const { return injected_faults_; }

  // --- Fs interface ---
  Result<std::unique_ptr<WritableFile>> OpenWritable(const std::string& path,
                                                     bool truncate) override;
  Result<std::vector<uint8_t>> ReadAll(const std::string& path) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool Exists(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status Truncate(const std::string& path, uint64_t size) override;
  Status SyncDirOf(const std::string& path) override;

 private:
  friend class FaultInjectingFile;

  /// Returns true (and counts) when the current mutating call must fail.
  bool ShouldFail();

  Fs* base_;
  int errors_skip_ = 0;
  int errors_to_inject_ = 0;
  int64_t short_write_prefix_ = -1;
  int64_t power_cut_offset_ = -1;
  int64_t appended_bytes_ = 0;
  bool power_cut_hit_ = false;
  int64_t append_calls_ = 0;
  int64_t sync_calls_ = 0;
  int64_t injected_faults_ = 0;
};

}  // namespace tvdp

#endif  // TVDP_COMMON_FILE_H_
