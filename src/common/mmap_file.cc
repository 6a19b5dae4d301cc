#include "common/mmap_file.h"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#define TENET_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define TENET_HAS_MMAP 0
#endif

namespace tenet {
namespace {

Result<std::vector<std::byte>> ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  in.seekg(0, std::ios::end);
  std::streamoff size = in.tellg();
  if (size < 0) return Status::Internal("cannot size " + path);
  in.seekg(0, std::ios::beg);
  std::vector<std::byte> buffer(static_cast<size_t>(size));
  if (size > 0) {
    in.read(reinterpret_cast<char*>(buffer.data()), size);
    if (!in) return Status::Internal("short read from " + path);
  }
  return buffer;
}

}  // namespace

Result<MmapFile> MmapFile::Open(const std::string& path, bool prefer_mmap) {
  MmapFile file;
#if TENET_HAS_MMAP
  if (prefer_mmap) {
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::NotFound("cannot open " + path + ": " +
                              std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0) {
      ::close(fd);
      return Status::Internal("cannot stat " + path);
    }
    size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {  // mmap of length 0 is EINVAL; an empty view is valid
      ::close(fd);
      return file;
    }
    int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
    // Pre-fault the whole mapping in one sweep: the loader touches nearly
    // every page anyway, and scattered minor faults cost more than eager
    // population of an already-cached snapshot.
    flags |= MAP_POPULATE;
#endif
    void* addr = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
    ::close(fd);  // the mapping keeps the pages alive
    if (addr == MAP_FAILED) {
      // Graceful degradation: some filesystems (and test harnesses) refuse
      // mmap; fall through to the buffered path below instead of failing.
      TENET_ASSIGN_OR_RETURN(file.owned_, ReadWholeFile(path));
      file.data_ = file.owned_.data();
      file.size_ = file.owned_.size();
      return file;
    }
    file.data_ = static_cast<const std::byte*>(addr);
    file.size_ = size;
    file.mapped_ = true;
    return file;
  }
#else
  (void)prefer_mmap;
#endif
  TENET_ASSIGN_OR_RETURN(file.owned_, ReadWholeFile(path));
  file.data_ = file.owned_.data();
  file.size_ = file.owned_.size();
  return file;
}

void MmapFile::Release() {
#if TENET_HAS_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  owned_.clear();
}

MmapFile::~MmapFile() { Release(); }

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      owned_(std::move(other.owned_)) {
  if (!mapped_ && data_ != nullptr) data_ = owned_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
  other.owned_.clear();
}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    owned_ = std::move(other.owned_);
    if (!mapped_ && data_ != nullptr) data_ = owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    other.owned_.clear();
  }
  return *this;
}

}  // namespace tenet
