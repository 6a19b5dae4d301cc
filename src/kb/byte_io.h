#ifndef TENET_KB_BYTE_IO_H_
#define TENET_KB_BYTE_IO_H_

#include <cstddef>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tenet {
namespace kb {

// The byte-level conventions of the three on-disk formats of this
// directory: TENETKB2 snapshots (io.cc), their alias_dict section
// (alias_dict.cc) and TENETDELTA1 segments (delta.cc).  Integers and
// floats are written in host order, which every format pins to
// little-endian with an endian tag or a version word it checks on load.

/// `n` rounded up to a multiple of 8: sections and arrays are 8-aligned.
constexpr size_t AlignUp8(size_t n) { return (n + 7) & ~size_t{7}; }

// Append-only byte buffer.
class ByteWriter {
 public:
  template <typename T>
  void Append(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    AppendBytes(&value, sizeof(T));
  }
  void AppendBytes(const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }
  void PadTo8() { bytes_.resize(AlignUp8(bytes_.size()), 0); }
  /// Overwrites the bytes at [offset, offset + sizeof(T)), which must
  /// already be written: a checksum sealed after its payload.
  template <typename T>
  void PatchAt(size_t offset, T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::memcpy(bytes_.data() + offset, &value, sizeof(T));
  }
  size_t size() const { return bytes_.size(); }
  const unsigned char* data() const { return bytes_.data(); }
  std::vector<unsigned char> Take() && { return std::move(bytes_); }

 private:
  std::vector<unsigned char> bytes_;
};

// Typed reads over bytes whose length the caller has already validated:
// the reader itself checks no bounds.
class ByteReader {
 public:
  explicit ByteReader(const void* p)
      : p_(static_cast<const unsigned char*>(p)) {}
  template <typename T>
  T Read() {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    std::memcpy(&value, p_, sizeof(T));
    p_ += sizeof(T);
    return value;
  }
  const unsigned char* position() const { return p_; }

 private:
  const unsigned char* p_;
};

/// The simulated crash of every writer here, for fault injection: it
/// leaves half the bytes at `<path>.tmp`, which is what a real crash
/// between the temp write and the rename leaves, and never touches `path`.
/// The previous file survives, and loaders never read the temp name.
inline Status SimulateTornWrite(const std::string& path, const void* data,
                                size_t size, const char* what) {
  std::ofstream debris(path + ".tmp", std::ios::trunc | std::ios::binary);
  if (debris) {
    debris.write(static_cast<const char*>(data),
                 static_cast<std::streamsize>(size / 2));
  }
  return Status::DataLoss(std::string("injected fault: write of ") + path +
                          " crashed mid-" + what +
                          "; previous file left intact");
}

}  // namespace kb
}  // namespace tenet

#endif  // TENET_KB_BYTE_IO_H_
