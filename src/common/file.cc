#include "common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace tvdp {
namespace {

std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

Status Errno(const std::string& op, const std::string& path) {
  return Status::IOError(op + " " + path + ": " + std::strerror(errno));
}

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  ~PosixWritableFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const uint8_t* data, size_t n) override {
    if (fd_ < 0) return Status::Internal("append to closed file " + path_);
    while (n > 0) {
      ssize_t w = ::write(fd_, data, n);
      if (w < 0) {
        if (errno == EINTR) continue;
        return Errno("write", path_);
      }
      data += w;
      n -= static_cast<size_t>(w);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (fd_ < 0) return Status::Internal("sync of closed file " + path_);
    if (::fsync(fd_) != 0) return Errno("fsync", path_);
    return Status::OK();
  }

  Status Close() override {
    if (fd_ < 0) return Status::OK();
    int rc = ::close(fd_);
    fd_ = -1;
    if (rc != 0) return Errno("close", path_);
    return Status::OK();
  }

 private:
  int fd_;
  std::string path_;
};

class PosixFs : public Fs {
 public:
  Result<std::unique_ptr<WritableFile>> OpenWritable(const std::string& path,
                                                     bool truncate) override {
    int flags = O_WRONLY | O_CREAT | (truncate ? O_TRUNC : O_APPEND);
    int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) return Errno("open", path);
    return {std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(fd, path))};
  }

  Result<std::vector<uint8_t>> ReadAll(const std::string& path) override {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Errno("open", path);
    std::vector<uint8_t> bytes;
    uint8_t buf[1 << 16];
    for (;;) {
      ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r < 0) {
        if (errno == EINTR) continue;
        Status s = Errno("read", path);
        ::close(fd);
        return s;
      }
      if (r == 0) break;
      bytes.insert(bytes.end(), buf, buf + r);
    }
    ::close(fd);
    return bytes;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (::stat(path.c_str(), &st) != 0) return Errno("stat", path);
    return static_cast<uint64_t>(st.st_size);
  }

  bool Exists(const std::string& path) override {
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (::rename(from.c_str(), to.c_str()) != 0) return Errno("rename", from);
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
    return Status::OK();
  }

  Status Truncate(const std::string& path, uint64_t size) override {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
      return Errno("truncate", path);
    }
    return Status::OK();
  }

  Status SyncDirOf(const std::string& path) override {
    std::string dir = DirOf(path);
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Errno("open dir", dir);
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) return Errno("fsync dir", dir);
    return Status::OK();
  }
};

/// A MemFs handle holds the file's bytes, not its path (POSIX semantics).
class MemFile : public WritableFile {
 public:
  MemFile(std::mutex* mutex, std::shared_ptr<std::vector<uint8_t>> bytes)
      : mutex_(mutex), bytes_(std::move(bytes)) {}

  Status Append(const uint8_t* data, size_t n) override {
    if (!bytes_) return Status::Internal("append to closed file");
    std::lock_guard<std::mutex> lock(*mutex_);
    bytes_->insert(bytes_->end(), data, data + n);
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override {
    bytes_.reset();
    return Status::OK();
  }

 private:
  std::mutex* mutex_;
  std::shared_ptr<std::vector<uint8_t>> bytes_;
};

}  // namespace

Fs* Fs::Default() {
  static PosixFs* fs = new PosixFs();
  return fs;
}

Status AtomicWriteFile(Fs& fs, const std::string& path,
                       const std::vector<uint8_t>& bytes) {
  std::string tmp = path + ".tmp";
  auto file = fs.OpenWritable(tmp, /*truncate=*/true);
  if (!file.ok()) return file.status();
  Status s = (*file)->Append(bytes);
  if (s.ok()) s = (*file)->Sync();
  Status close_status = (*file)->Close();
  if (s.ok()) s = close_status;
  if (s.ok()) s = fs.Rename(tmp, path);
  if (!s.ok()) {
    if (fs.Exists(tmp)) fs.Remove(tmp);
    return s.code() == StatusCode::kIOError
               ? s
               : Status::IOError("atomic write of " + path + " failed: " +
                                 s.message());
  }
  return fs.SyncDirOf(path);
}

Result<std::unique_ptr<WritableFile>> MemFs::OpenWritable(
    const std::string& path, bool truncate) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& file = files_[path];
  if (!file) file = std::make_shared<std::vector<uint8_t>>();
  if (truncate) file->clear();
  return {std::unique_ptr<WritableFile>(
      std::make_unique<MemFile>(&mutex_, file))};
}

Result<std::vector<uint8_t>> MemFs::ReadAll(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::IOError("no such file: " + path);
  return *it->second;
}

Result<uint64_t> MemFs::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::IOError("no such file: " + path);
  return static_cast<uint64_t>(it->second->size());
}

bool MemFs::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  return files_.count(path) > 0;
}

Status MemFs::Rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::IOError("no such file: " + from);
  auto file = std::move(it->second);
  files_.erase(it);
  files_[to] = std::move(file);
  return Status::OK();
}

Status MemFs::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (files_.erase(path) == 0) return Status::IOError("no such file: " + path);
  return Status::OK();
}

Status MemFs::Truncate(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::IOError("no such file: " + path);
  it->second->resize(static_cast<size_t>(size));
  return Status::OK();
}

// ---------------------------------------------------------------------------
// FaultInjectingFs
// ---------------------------------------------------------------------------

class FaultInjectingFile : public WritableFile {
 public:
  FaultInjectingFile(std::unique_ptr<WritableFile> base, FaultInjectingFs* fs)
      : base_(std::move(base)), fs_(fs) {}

  Status Append(const uint8_t* data, size_t n) override;
  Status Sync() override;
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  FaultInjectingFs* fs_;
};

bool FaultInjectingFs::ShouldFail() {
  if (errors_skip_ > 0) {
    --errors_skip_;
    return false;
  }
  if (errors_to_inject_ > 0) {
    --errors_to_inject_;
    ++injected_faults_;
    return true;
  }
  return false;
}

Status FaultInjectingFile::Append(const uint8_t* data, size_t n) {
  ++fs_->append_calls_;
  if (fs_->ShouldFail()) {
    return Status::IOError("injected transient write error");
  }
  if (fs_->short_write_prefix_ >= 0) {
    size_t prefix = static_cast<size_t>(fs_->short_write_prefix_);
    fs_->short_write_prefix_ = -1;
    ++fs_->injected_faults_;
    if (prefix > n) prefix = n;
    Status s = base_->Append(data, prefix);
    if (!s.ok()) return s;
    fs_->appended_bytes_ += static_cast<int64_t>(prefix);
    return Status::IOError("injected short write");
  }
  if (fs_->power_cut_offset_ >= 0) {
    int64_t room = fs_->power_cut_offset_ - fs_->appended_bytes_;
    if (room < 0) room = 0;
    size_t keep = room < static_cast<int64_t>(n) ? static_cast<size_t>(room) : n;
    if (keep < n) fs_->power_cut_hit_ = true;
    fs_->appended_bytes_ += static_cast<int64_t>(n);
    // The dropped suffix "succeeds" from the writer's point of view: that is
    // exactly what a power cut before the data reached the platter looks like.
    return keep > 0 ? base_->Append(data, keep) : Status::OK();
  }
  fs_->appended_bytes_ += static_cast<int64_t>(n);
  return base_->Append(data, n);
}

Status FaultInjectingFile::Sync() {
  ++fs_->sync_calls_;
  if (fs_->ShouldFail()) {
    return Status::IOError("injected transient sync error");
  }
  if (fs_->power_cut_hit_) return Status::OK();  // the machine is "off"
  return base_->Sync();
}

Result<std::unique_ptr<WritableFile>> FaultInjectingFs::OpenWritable(
    const std::string& path, bool truncate) {
  auto base = base_->OpenWritable(path, truncate);
  if (!base.ok()) return base.status();
  return {std::unique_ptr<WritableFile>(std::make_unique<FaultInjectingFile>(
      std::move(*base), this))};
}

Result<std::vector<uint8_t>> FaultInjectingFs::ReadAll(const std::string& path) {
  return base_->ReadAll(path);
}

Result<uint64_t> FaultInjectingFs::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool FaultInjectingFs::Exists(const std::string& path) {
  return base_->Exists(path);
}

Status FaultInjectingFs::Rename(const std::string& from, const std::string& to) {
  if (ShouldFail()) return Status::IOError("injected rename error");
  return base_->Rename(from, to);
}

Status FaultInjectingFs::Remove(const std::string& path) {
  return base_->Remove(path);
}

Status FaultInjectingFs::Truncate(const std::string& path, uint64_t size) {
  return base_->Truncate(path, size);
}

Status FaultInjectingFs::SyncDirOf(const std::string& path) {
  if (power_cut_hit_) return Status::OK();
  return base_->SyncDirOf(path);
}

}  // namespace tvdp
